"""Checks on the program's outputs, run after each timed pass.

Each check returns a list of problems; an invocation with any problem
counts as a failed operation.
"""

from __future__ import annotations

import re

import numpy as np

_UNION_OF_BALLS = re.compile(r"^union of balls: \w+ \((\d+) points\)$", re.M)


def witnesses_built(command: str, payload: dict, stdout: str) -> int:
    """Witnesses an invocation built: one per cover probe, or the report's
    union-of-balls sample."""
    if command == "cover":
        return len(payload["witnesses"])
    if command == "report":
        match = _UNION_OF_BALLS.search(stdout)
        return int(match.group(1)) if match else 0
    return 0


def check_invocation(inv, rc: int, payload: dict | None, scene, seen_digests: dict) -> list[str]:
    """Exit status, digest, harness consistency and witness soundness.

    A digest pinned in advance must match; otherwise every pass must repeat
    the digest of the first pass (``seen_digests`` records it).
    """
    if payload is None:
        return [f"exit status {rc} and no JSON report"]
    problems = []
    digest = payload.get("digest")
    expected = inv.digest or seen_digests.setdefault((inv.scene, inv.command), digest)
    if digest != expected:
        problems.append(f"report digest {digest} != expected {expected}")
    if inv.command == "report" and payload.get("consistent") is not True:
        problems.append("harness verdicts inconsistent")
    if inv.command == "cover":
        problems.extend(_check_witnesses(inv, rc, payload, scene))
    elif rc != inv.expect_exit:
        problems.append(f"exit status {rc}, expected {inv.expect_exit}")
    return problems


def _check_witnesses(inv, rc, payload, scene) -> list[str]:
    """Re-verify every witness against the analytic distance.

    A finite witness ball must contain its probe and keep clear of the set;
    an infinite witness direction must give a clear delta-ball for every
    requested delta.  Where the condition holds no witness may fail.
    """
    desc = scene.desc
    tol = 1e-9 * max(1.0, desc.diameter)
    deltas = scene.samples.delta_list or (desc.diameter,)
    witnesses = payload["witnesses"]
    problems = []
    if len(witnesses) != len(scene.samples.points) + len(inv.probes):
        problems.append(f"{len(witnesses)} witnesses for {len(inv.probes)} probes")
    failures = sum(1 for w in witnesses if not w["ok"])
    if rc != (1 if failures else 0):
        problems.append(f"exit status {rc} with {failures} failed witnesses")
    if inv.condition_holds and failures:
        problems.append(f"{failures} witnesses failed although the condition holds")
    for w in witnesses:
        if not w["ok"]:
            continue
        x = np.asarray(w["x"], dtype=float)
        if w["ball"] is not None:
            center = np.asarray(w["ball"]["center"], dtype=float)
            radius = float(w["ball"]["radius"])
            if np.linalg.norm(x - center) > radius + tol or desc.distance(center) < radius - tol:
                problems.append(f"unsound witness ball at {x.tolist()}")
        else:
            u = np.asarray(w["direction"], dtype=float)
            if any(desc.distance(x + delta * u) < delta - tol for delta in deltas):
                problems.append(f"unsound witness direction at {x.tolist()}")
    return problems
