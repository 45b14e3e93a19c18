"""Constructive witness balls covering the complement of a closed set.

For an exterior point x the goal is a closed ball through x of radius equal
to the cover radius (half the smallest boundary radius over the projections
of x) that stays inside the complement; when the cover radius is infinite,
a direction u such that the closed delta-ball tangent at x along u stays in
the complement for every requested delta.

The construction follows a case split on the attaining projection a_x:

* the cover radius undercuts the clearance of x: the ball sits at x itself;
* a_x off the boundary of the interior: slide the ball outward along the
  projection direction, which is realized at the full boundary radius there;
* a_x on the boundary of the interior: walk a shrinking neighborhood of a_x,
  cross the boundary between x and a nearby interior point, borrow a
  realized sphere at the crossing, and place the ball by one of three
  subcases depending on how far that sphere's center sits from x.

Infinite cover radii are never manipulated as infinite balls: the same
machinery runs against a finite synthetic target of four times the largest
requested delta, and the emitted direction is validated per delta.

``verify_union_of_balls`` re-checks the witnesses of sampled exterior points
against the distance oracle, projecting each sample once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    INF, Ball, ConstructionError, GeometryError, as_tuple, as_vec, bisect, norm, normalized,
    sphere_line_roots,
)
from .proximal import (
    RadiusField,
    best_normal,
    default_density,
    default_rho_max,
    sample_unit_normals,
)
from .sets import ClosedSetDesc, owning_leaves

EPS_HALVINGS = 60


def cover_radius(desc: ClosedSetDesc, radius_field: RadiusField, x) -> float:
    """Guaranteed witness-ball radius at an exterior point: half the smallest
    boundary radius among its projections (+inf halves to +inf).

    The minimum is attained because projections are finitely clustered.
    """
    x = as_vec(x, dim=desc.dim)
    if desc.contains(x):
        raise GeometryError(f"point {x.tolist()} lies in the set; exterior point required")
    return attaining_projection(radius_field, desc.project(x))[-1]


def attaining_projection(radius_field: RadiusField, proj):
    """The point of the projection proj attaining the cover radius
    (lexicographic tie-break), its labels, proj itself, and the cover radius."""
    scored = []
    for p, labels in zip(proj.points, proj.labels):
        v = radius_field.value(p, labels)
        half = v / 2.0 if math.isfinite(v) else INF
        scored.append((half, tuple(p), p, labels))
    half, _, p, labels = min(scored, key=lambda t: (t[0], t[1]))
    return p, labels, proj, half


def _deltas(desc: ClosedSetDesc, delta_list) -> tuple:
    """The deltas an infinite witness is built and re-checked at; an empty
    list stands for the scene diameter."""
    return tuple(delta_list) if len(delta_list) else (desc.diameter,)


class CrossingOutsideError(ConstructionError):
    """Boundary crossing landed outside the requested neighborhood; retry
    with a smaller neighborhood."""


@dataclass
class WitnessBall:
    """Witness for one exterior point, finite (ball) or infinite (direction)."""

    x: tuple
    case_tag: str
    ball: Ball | None = None
    direction: tuple | None = None
    intermediates: dict = field(default_factory=dict)
    delta_checks: tuple = ()
    ok: bool = True
    note: str = ""


def bridging_ball_radius(clearance: float, separation: float, cover: float) -> float:
    """Radius of the tangent ball that bridges two covering balls.

    Given the clearance of x (its ball radius), the distance from x to the
    center y of a covering ball, and that ball's radius, the returned value
    rho makes the ball tangent at x toward y a subset of the union of the
    two covering balls:

        rho = clearance^2 * separation / (separation^2 + clearance^2 - cover^2)
    """
    if separation < cover:
        raise ConstructionError(
            f"guard violated: separation {separation!r} < covering radius {cover!r}"
        )
    denom = separation * separation + clearance * clearance - cover * cover
    if denom <= 0.0:
        raise ConstructionError(f"guard violated: nonpositive denominator {denom!r}")
    return clearance * clearance * separation / denom


def find_interior_point_near(desc: ClosedSetDesc, a, eps: float, seed: int = 0) -> np.ndarray:
    """A point of the interior within eps of a boundary-of-interior point.

    Analytic inward offsets of the leaves owning the point are tried first;
    rejection sampling of up to 100,000 draws inside the eps-ball is the
    fallback.
    """
    a = as_vec(a, dim=desc.dim)
    if not (eps > 0.0):
        raise GeometryError("eps must be positive")
    if not desc.in_boundary_of_interior(a):
        raise GeometryError(f"{a.tolist()} is not on the boundary of the interior")
    for leaf in owning_leaves(desc.leaves, a, desc.cluster_tol):
        z = leaf.interior_offset(a, eps)
        if z is not None and norm(z - a) < eps and desc.interior_contains(z):
            return z
    rng = np.random.default_rng(seed)
    chunk = 512
    for _ in range(100_000 // chunk):
        raw = rng.normal(size=(chunk, desc.dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = 0.999 * eps * rng.random(chunk) ** (1.0 / desc.dim)
        pts = a + dirs * radii[:, None]
        hits = desc.interior_many(pts)
        idx = np.nonzero(hits)[0]
        if idx.size:
            return pts[idx[0]]
    raise ConstructionError(
        f"no interior point found within {eps!r} of {a.tolist()} "
        "(classification wrong or eps too small)"
    )


def boundary_crossing(desc: ClosedSetDesc, x, z_eps, a_x, eps: float) -> np.ndarray:
    """Boundary point on the open segment (x, z_eps) inside the eps-ball at a_x.

    The segment runs from an exterior point to an interior point through the
    sphere around a_x; the two sphere crossings bracket the membership flip,
    which bisection then pins down.
    """
    x = as_vec(x, dim=desc.dim)
    z = as_vec(z_eps, dim=desc.dim)
    a_x = as_vec(a_x, dim=desc.dim)
    if desc.contains(x):
        raise GeometryError("segment start must be an exterior point")
    if not desc.interior_contains(z):
        raise GeometryError("segment end must be an interior point")
    if not norm(z - a_x) < eps:
        raise GeometryError("interior point must lie inside the eps-ball")
    t_z = norm(z - x)
    xi = (z - x) / t_z
    roots = sphere_line_roots(x, xi, a_x, eps)
    if roots is None:
        raise CrossingOutsideError("segment line misses the eps-sphere")
    t1, t2 = roots
    if t1 <= 0.0:
        raise CrossingOutsideError("exterior point already inside the eps-sphere")
    lo = t1 + 1e-12 * (t2 - t1)
    if desc.contains(x + lo * xi):
        raise CrossingOutsideError("no exterior stretch inside the eps-sphere")
    _, hi = bisect(lambda t: not desc.contains(x + t * xi), lo, t_z, width=1e-15 * (1.0 + t_z))
    a_eps = x + hi * xi
    if not norm(a_eps - a_x) < eps:
        raise CrossingOutsideError("crossing escaped the eps-ball")
    return a_eps


def _validated(desc, x, center, radius, tag, intermediates, tol) -> WitnessBall | None:
    gap = norm(x - center)
    clearance = desc.distance(center)
    if gap <= radius + tol and clearance >= radius - tol:
        return WitnessBall(
            as_tuple(x), tag, ball=Ball(center, radius), intermediates=intermediates
        )
    return None


def _epsilon_loop(desc, radius_field, x, a_x, rho_x, target, density, rho_max, seed, synthetic):
    """Shared neighborhood-shrinking loop for the boundary-of-interior cases.

    target is the boundary radius budget at a_x (the synthetic stand-in in
    the infinite case); the produced ball has radius target/2 and the tag of
    the subcase which placed it.
    """
    half = target / 2.0
    tol = desc.realize_tol
    eps = 0.5 * rho_x
    note = ""
    ending = f"exhausted after {EPS_HALVINGS} halvings"
    for halving in range(EPS_HALVINGS):
        if halving:
            eps *= 0.5
        try:
            z_eps = find_interior_point_near(desc, a_x, eps, seed=seed + halving)
            a_eps = boundary_crossing(desc, x, z_eps, a_x, eps)
        except CrossingOutsideError as exc:
            note = str(exc)
            continue
        except ConstructionError as exc:
            # No interior point within eps (it fell below the membership
            # tolerance); smaller neighborhoods cannot do better.
            note, ending = str(exc), f"stopped at halving {halving}"
            break
        labels = desc.boundary_labels_at(a_eps)
        if not labels:
            labels = desc.boundary_labels_at(a_eps, tol=10.0 * desc.cluster_tol)
        r_scene = radius_field.value(a_eps, labels) if labels else INF
        r_eff = min(r_scene, target) if synthetic else r_scene
        toward_x = normalized(x - a_eps)
        cone = sample_unit_normals(
            desc, a_eps, density=density, rho_max=rho_max, extra_directions=[toward_x]
        )
        pick = best_normal(cone, reference=toward_x)
        if pick is None:
            note = "empty sampled cone at the crossing point"
            continue
        rho_star = min(float(cone.realizations[pick]), r_eff)
        if not rho_star > half:
            note = (
                f"realized radius {rho_star:.6g} at the crossing did not clear "
                f"half the target {half:.6g}"
            )
            continue
        y_eps = a_eps + rho_star * cone.directions[pick]
        separation = norm(y_eps - x)
        inter = {
            "a_x": as_tuple(a_x),
            "rho_x": rho_x,
            "eps": eps,
            "z_eps": as_tuple(z_eps),
            "a_eps": as_tuple(a_eps),
            "y_eps": as_tuple(y_eps),
            "rho_star": rho_star,
        }
        if separation <= target - rho_star:
            witness = _validated(desc, x, y_eps, half, "C1.2.1", inter, tol)
        elif separation < rho_star:
            if separation <= tol:
                center = x.copy()
            else:
                center = x + half * (y_eps - x) / separation
            witness = _validated(desc, x, center, half, "C1.2.2", inter, tol)
        else:
            try:
                rho_eps = bridging_ball_radius(rho_x, separation, rho_star)
            except ConstructionError as exc:
                note = str(exc)
                continue
            inter["rho_eps"] = rho_eps
            if not rho_eps > half:
                # Diagnostic only: the bridging radius clears half the cover
                # radius exactly when the separation stays below
                # (clearance^2 + sqrt(quartic)) / cover; report how far off.
                quartic = rho_x**4 + rho_star**4 - rho_star**2 * rho_x**2
                bound = (rho_x**2 + math.sqrt(quartic)) / rho_star
                note = (
                    f"bridging radius {rho_eps:.6g} below half target {half:.6g} "
                    f"(separation {separation:.6g} vs bound {bound:.6g}); shrinking"
                )
                continue
            center = x + half * (y_eps - x) / separation
            witness = _validated(desc, x, center, half, "C1.2.3", inter, tol)
        if witness is not None:
            return witness
        note = "constructed ball failed oracle validation"
    return WitnessBall(
        as_tuple(x), "failed", ok=False,
        note=f"epsilon loop {ending}: {note}",
        intermediates={"a_x": as_tuple(a_x), "rho_x": rho_x},
    )


def _delta_validated(desc, x, u, delta_list, tag, intermediates, tol, extra_note=""):
    checks = []
    ok = True
    for delta in delta_list:
        clearance = desc.distance(x + delta * u)
        good = clearance >= delta - tol
        ok &= good
        checks.append((float(delta), float(clearance)))
    return WitnessBall(
        as_tuple(x), tag, direction=as_tuple(u), intermediates=intermediates,
        delta_checks=tuple(checks), ok=ok,
        note=extra_note if ok else "a requested delta-ball met the set",
    )


def construct_witness(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    x,
    delta_list=(1.0, 10.0, 100.0),
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> WitnessBall:
    """Build and validate the witness for one exterior point.

    Finite cover radius: returns a closed ball through x of exactly that
    radius, checked against the distance oracle.  Infinite cover radius:
    returns a unit direction whose tangent delta-balls are checked for every
    requested delta (the infinite family is never represented as a ball).
    """
    x = as_vec(x, dim=desc.dim)
    if desc.contains(x):
        raise GeometryError(f"{x.tolist()} lies in the set; witnesses cover the complement")
    attained = attaining_projection(radius_field, desc.project(x))
    return _witness(desc, radius_field, x, attained, delta_list, density, seed, rho_max)


def _witness(desc, radius_field, x, attained, delta_list, density, seed, rho_max) -> WitnessBall:
    """The witness for the exterior point x, given its attaining projection."""
    density = default_density(desc.dim) if density is None else density
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    a_x, labels, proj, rho = attained
    rho_x = proj.distance
    zeta = normalized(x - a_x)
    tol = desc.realize_tol
    inter = {"a_x": as_tuple(a_x), "rho_x": rho_x, "labels": labels}

    if math.isfinite(rho):
        if rho < rho_x:
            witness = _validated(desc, x, x, rho, "C1-direct", inter, tol)
            if witness is not None:
                return witness
            return WitnessBall(
                as_tuple(x), "failed", ok=False, intermediates=inter,
                note="direct ball failed oracle validation",
            )
        if not desc.in_boundary_of_interior(a_x):
            center = x + rho * zeta
            witness = _validated(desc, x, center, rho, "C1.1", inter, tol)
            if witness is not None:
                return witness
            return WitnessBall(
                as_tuple(x), "failed", ok=False, intermediates=inter,
                note="outward ball failed validation; condition violated near the projection",
            )
        return _epsilon_loop(
            desc, radius_field, x, a_x, rho_x,
            target=2.0 * rho, density=density, rho_max=rho_max, seed=seed, synthetic=False,
        )

    # Infinite cover radius.
    deltas = _deltas(desc, delta_list)
    if not desc.in_boundary_of_interior(a_x):
        return _delta_validated(desc, x, zeta, deltas, "C2.1", inter, tol)
    target = 4.0 * max(deltas)
    synthetic = _epsilon_loop(
        desc, radius_field, x, a_x, rho_x,
        target=target, density=density, rho_max=rho_max, seed=seed, synthetic=True,
    )
    if not synthetic.ok:
        return WitnessBall(
            as_tuple(x), "failed", ok=False, intermediates=synthetic.intermediates,
            note=f"synthetic finite run failed: {synthetic.note}",
        )
    center = np.asarray(synthetic.ball.center)
    offset = center - x
    u = zeta if norm(offset) <= tol else normalized(offset)
    inter = dict(synthetic.intermediates)
    inter["synthetic_target"] = target
    inter["synthetic_case"] = synthetic.case_tag
    return _delta_validated(
        desc, x, u, deltas, "C2-finite-delta", inter, tol,
        extra_note=f"via synthetic target {target:.6g}",
    )


@dataclass
class CoverViolation:
    point: tuple
    kind: str
    detail: str


@dataclass
class CoverReport:
    verdict: str
    checked: int
    violations: list
    tol: float
    seed: int
    delta_list: tuple


def verify_union_of_balls(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    samples: int = 200,
    delta_list=(1.0, 10.0, 100.0),
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> CoverReport:
    """Check the union-of-closed-balls property of the complement by sampling.

    Each sample is projected once; its cover radius and its witness come
    from that projection.  Finite cover radius: the witness ball must
    contain the sample and keep the full cover radius away from the set.
    Infinite cover radius: the witness direction must admit the tangent
    family of closed delta-balls for every delta of the list (the scene
    diameter when it is empty).  Both tests allow the scene's ball tolerance.
    """
    tol = desc.ball_tol
    deltas = _deltas(desc, delta_list)
    pts = desc.sample_exterior(samples, seed=seed)
    violations: list[CoverViolation] = []
    for x, proj in zip(pts, desc.project_many(pts)):
        point = as_tuple(x)
        try:
            attained = attaining_projection(radius_field, proj)
        except (GeometryError, ConstructionError) as exc:
            violations.append(CoverViolation(point, "radius-error", str(exc)))
            continue
        try:
            witness = _witness(desc, radius_field, x, attained, deltas, density, seed, rho_max)
        except (GeometryError, ConstructionError) as exc:
            violations.append(CoverViolation(point, "witness-error", str(exc)))
            continue
        rho = attained[-1]
        if not witness.ok:
            violations.append(CoverViolation(point, "witness-failed", witness.note))
        elif math.isfinite(rho):
            center = np.asarray(witness.ball.center, dtype=float)
            gap, clearance = norm(x - center), desc.distance(center)
            if gap > rho + tol:
                detail = f"|x-y|={gap:.9g} > rho={rho:.9g}"
                violations.append(CoverViolation(point, "not-covered", detail))
            elif clearance < rho - tol:
                detail = f"distance={clearance:.9g} < rho={rho:.9g}"
                violations.append(CoverViolation(point, "ball-meets-set", detail))
        else:
            u = np.asarray(witness.direction, dtype=float)
            for delta in deltas:
                clearance = desc.distance(x + delta * u)
                if clearance < delta - tol:
                    detail = f"delta={delta:.9g} distance={clearance:.9g}"
                    violations.append(CoverViolation(point, "delta-ball-meets-set", detail))
                    break
    verdict = "holds" if not violations else "fails"
    return CoverReport(verdict, len(pts), violations, tol, seed, deltas)
