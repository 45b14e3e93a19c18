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

``construct_witness_many`` builds the witnesses of many exterior points at
once: one projection pass picks every row's case, and the epsilon loop runs
in rounds over the rows still open, one halving per round, with one
lockstep crossing bisection, one cone call and one validation call for all
of them.  Each row keeps its own neighborhood, notes and outcome, and a row
whose construction raises keeps that error to itself.  A row's witness does
not depend on the other rows (see ``_ask``), and ``construct_witness`` is
the one-row call.

``verify_union_of_balls`` re-checks the witnesses of sampled exterior points
against the distance oracle, projecting each sample once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    INF, Ball, ConstructionError, GeometryError, as_tuple, as_vec, bisect, norm, normalized,
    sphere_line_roots_many,
)
from .proximal import (
    RadiusField,
    best_normal,
    default_density,
    default_rho_max,
    sample_unit_normals_many,
)
from .sets import ClosedSetDesc, _owners, boundary_labels_many

EPS_HALVINGS = 60

# What a witness row may raise without stopping the other rows.
_ROW_ERRORS = (GeometryError, ConstructionError)


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


def _ask(query, P):
    """``query(P)`` for the rows of P, asked with at least two rows.

    Half-space and slab membership, which intersection distances read too,
    give a row the same bits on any batch of two rows or more, while a lone
    row may round otherwise; so a witness row gets the same answers in a
    batch of any size.  The membership whose bits place a crossing (the
    bisection, the checks at its ends, the exterior check) is asked
    ``per_row`` instead, with the bits of the one-row calls.  Tuple results
    are cut per item.
    """
    n = len(P)
    out = query(np.concatenate([P, P]) if n == 1 else P)
    return tuple(o[:n] for o in out) if isinstance(out, tuple) else out[:n]


def _row_norms(V) -> np.ndarray:
    """Euclidean norm of each row, with the bits of ``norm`` on that row."""
    return np.sqrt(np.vecdot(V, V))


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
    z = _interior_points(desc, a[None, :], [eps], seed, [_owning(desc, a[None, :])[0]])[0]
    if isinstance(z, ConstructionError):
        raise z
    return z


def _owning(desc: ClosedSetDesc, A) -> list[list]:
    """The leaves, in order, owning each row of A (``owning_leaves``)."""
    owns = _ask(lambda P: np.stack(_owners(desc.leaves, P, desc.cluster_tol), axis=1), A)
    return [[leaf for leaf, own in zip(desc.leaves, row) if own] for row in owns]


def _interior_points(desc, A, eps, seed, owners) -> list:
    """``find_interior_point_near`` at each row of A, within its eps, with
    the owning leaves of each row given: an interior point per row, or that
    row's ConstructionError.  The analytic offsets of all rows share one
    interior check; rejection sampling stays per row, from ``seed``."""
    cands = [
        (i, z)
        for i, (a, e, leaves) in enumerate(zip(A, eps, owners))
        for z in (leaf.interior_offset(a, e) for leaf in leaves)
        if z is not None and norm(z - a) < e
    ]
    out: list = [None] * len(A)
    if cands:
        inside = _ask(desc.interior_many, np.asarray([z for _, z in cands]))
        for (i, z), ok in zip(cands, inside):
            if ok and out[i] is None:
                out[i] = z
    for i, z in enumerate(out):
        if z is None:
            out[i] = _drawn_interior_point(desc, A[i], float(eps[i]), seed)
    return out


def _drawn_interior_point(desc, a, eps, seed):
    """An interior point among up to 100,000 seeded draws inside the
    eps-ball at a, or the ConstructionError saying there is none."""
    rng = np.random.default_rng(seed)
    chunk = 512
    for _ in range(100_000 // chunk):
        raw = rng.normal(size=(chunk, desc.dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = 0.999 * eps * rng.random(chunk) ** (1.0 / desc.dim)
        pts = a + dirs * radii[:, None]
        idx = np.nonzero(desc.interior_many(pts))[0]
        if idx.size:
            return pts[idx[0]]
    return ConstructionError(
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
    a_eps = _crossings(desc, x[None, :], z[None, :], a_x[None, :], np.array([eps]))[0]
    if isinstance(a_eps, CrossingOutsideError):
        raise a_eps
    return a_eps


def _crossings(desc, X, Z, A, eps) -> list:
    """``boundary_crossing`` for the rows of X, Z and A with the radii eps,
    whose segments are known to run from an exterior to an interior point
    inside the eps-ball: the crossing of each row, or that row's
    CrossingOutsideError.  All rows are bisected in lockstep, each bracket
    to its own width."""
    V = Z - X
    t_z = _row_norms(V)
    XI = V / t_z[:, None]
    t1, t2 = sphere_line_roots_many(X, XI, A, eps)
    lo = t1 + 1e-12 * (t2 - t1)
    out: list = [None] * len(X)
    for i in np.flatnonzero(np.isnan(t1)):
        out[i] = CrossingOutsideError("segment line misses the eps-sphere")
    for i in np.flatnonzero(t1 <= 0.0):
        out[i] = CrossingOutsideError("exterior point already inside the eps-sphere")
    rows = np.flatnonzero(t1 > 0.0)
    started = desc.contains_many(X[rows] + lo[rows, None] * XI[rows], per_row=True)
    for i in rows[started]:
        out[i] = CrossingOutsideError("no exterior stretch inside the eps-sphere")
    rows = rows[~started]
    if rows.size == 0:
        return out
    X, XI, t_z = X[rows], XI[rows], t_z[rows]
    _, hi = bisect(
        lambda t: ~desc.contains_many(X + t[:, None] * XI, per_row=True), lo[rows], t_z,
        width=1e-15 * (1.0 + t_z),
    )
    A_eps = X + hi[:, None] * XI
    inside = _row_norms(A_eps - A[rows]) < eps[rows]
    for i, a_eps, ok in zip(rows, A_eps, inside):
        out[i] = a_eps if ok else CrossingOutsideError("crossing escaped the eps-ball")
    return out


def _balls_hold(desc, X, C, radii, tol) -> np.ndarray:
    """Whether each ball (C[i], radii[i]) holds X[i] and keeps its radius
    off the set, up to tol, from one distance call for all rows."""
    radii = np.asarray(radii, dtype=float)
    clearance = _ask(desc.distance_many, C)
    return (_row_norms(X - C) <= radii + tol) & (clearance >= radii - tol)


@dataclass
class _Loop:
    """One row's epsilon loop: the exterior point x, its attaining
    projection a_x at distance rho_x and the leaves owning a_x, the boundary
    radius budget target at a_x (for a synthetic loop, the stand-in of an
    infinite one), and the loop's neighborhood radius and last note."""

    row: int
    x: np.ndarray
    a_x: np.ndarray
    rho_x: float
    target: float
    synthetic: bool
    owners: list = field(default_factory=list)
    eps: float = 0.0
    note: str = ""

    def failed(self, ending: str) -> WitnessBall:
        return WitnessBall(
            as_tuple(self.x), "failed", ok=False,
            note=f"epsilon loop {ending}: {self.note}",
            intermediates={"a_x": as_tuple(self.a_x), "rho_x": self.rho_x},
        )


def _epsilon_loops(desc, radius_field, loops, density, rho_max, seed) -> dict:
    """Shared neighborhood-shrinking loop for the boundary-of-interior cases,
    run for many rows at once: the outcome of each loop by its row, a
    witness or the row's error.

    Each round halves the neighborhood of every open row (the first round
    starts at half the clearance), finds an interior point within it,
    crosses the boundary toward x, samples the normal cone at the crossing
    and places a ball of radius target/2, tagged with the subcase that
    placed it; a row stays open while a step falls short, keeping the
    reason as its note.
    """
    tol = desc.realize_tol
    out: dict = {}
    for loop in loops:
        loop.eps = 0.5 * loop.rho_x
    if loops:
        for loop, owners in zip(loops, _owning(desc, np.asarray([lp.a_x for lp in loops]))):
            loop.owners = owners
    live = list(loops)
    for halving in range(EPS_HALVINGS):
        if not live:
            break
        if halving:
            for loop in live:
                loop.eps *= 0.5
        eps = np.array([loop.eps for loop in live])
        A = np.asarray([loop.a_x for loop in live])
        Z = _interior_points(desc, A, eps, seed + halving, [loop.owners for loop in live])
        found = []
        for k, (loop, z) in enumerate(zip(live, Z)):
            if isinstance(z, ConstructionError):
                # No interior point within eps (it fell below the membership
                # tolerance); smaller neighborhoods cannot do better.
                loop.note = str(z)
                out[loop.row] = loop.failed(f"stopped at halving {halving}")
            else:
                found.append(k)
        X = np.asarray([live[k].x for k in found]).reshape(-1, desc.dim)
        crossed = _crossings(desc, X, np.asarray([Z[k] for k in found]).reshape(-1, desc.dim),
                             A[found], eps[found]) if found else []
        steps = []
        for k, a_eps in zip(found, crossed):
            if isinstance(a_eps, CrossingOutsideError):
                live[k].note = str(a_eps)
            else:
                steps.append((live[k], Z[k], a_eps))
        coned = _crossing_cones(desc, radius_field, steps, density, rho_max, out)
        placed = []
        for loop, z_eps, a_eps, r_eff, toward_x, cone in coned:
            step = _placement(loop, z_eps, a_eps, r_eff, toward_x, cone, tol)
            if isinstance(step, str):
                loop.note = step
            else:
                placed.append((loop, *step))
        if placed:
            C = np.asarray([center for _, center, _, _ in placed])
            X = np.asarray([loop.x for loop, _, _, _ in placed])
            holds = _balls_hold(desc, X, C, [lp.target / 2.0 for lp, _, _, _ in placed], tol)
            for (loop, center, tag, inter), ok in zip(placed, holds):
                if not ok:
                    loop.note = "constructed ball failed oracle validation"
                    continue
                try:
                    ball = Ball(center, loop.target / 2.0)
                except GeometryError as exc:
                    out[loop.row] = exc
                    continue
                out[loop.row] = WitnessBall(as_tuple(loop.x), tag, ball=ball, intermediates=inter)
        live = [loop for loop in live if loop.row not in out]
    for loop in live:
        out[loop.row] = loop.failed(f"exhausted after {EPS_HALVINGS} halvings")
    return out


def _crossing_cones(desc, radius_field, steps, density, rho_max, out) -> list:
    """The capped boundary radius at each crossing of ``steps`` (loop,
    z_eps, a_eps), the direction toward x and the sampled normal cone
    there, the direction toward x added, from one boundary check and one
    cone call.  A row whose radius fails, or whose crossing is not on the
    boundary, puts its error in ``out`` instead."""
    if not steps:
        return []
    A = np.asarray([a_eps for _, _, a_eps in steps])
    labels = _ask(lambda P: boundary_labels_many(desc.leaves, P, desc.cluster_tol), A)
    bare = [k for k, lab in enumerate(labels) if not lab]
    if bare:
        wide = _ask(lambda P: boundary_labels_many(desc.leaves, P, 10.0 * desc.cluster_tol), A[bare])
        for k, lab in zip(bare, wide):
            labels[k] = lab
    on_boundary = desc.contains_many(A, per_row=True) & ~_ask(desc.interior_many, A)
    kept = []
    for (loop, z_eps, a_eps), lab, on in zip(steps, labels, on_boundary):
        try:
            r_scene = radius_field.value(a_eps, lab) if lab else INF
            toward_x = normalized(loop.x - a_eps)
            if not on:
                raise GeometryError(f"point {a_eps.tolist()} is not on the set boundary")
        except _ROW_ERRORS as exc:
            out[loop.row] = exc
            continue
        r_eff = min(r_scene, loop.target) if loop.synthetic else r_scene
        kept.append((loop, z_eps, a_eps, r_eff, toward_x))
    if not kept:
        return []
    cones = sample_unit_normals_many(
        desc, np.asarray([step[2] for step in kept]), density=density, rho_max=rho_max,
        extra_directions=[[step[4]] for step in kept],
    )
    return [(*step, cone) for step, cone in zip(kept, cones)]


def _placement(loop, z_eps, a_eps, r_eff, toward_x, cone, tol):
    """The ball one crossing places for a loop: its center, subcase tag and
    intermediates, or the note saying why this neighborhood falls short."""
    x, target, rho_x = loop.x, loop.target, loop.rho_x
    half = target / 2.0
    pick = best_normal(cone, reference=toward_x)
    if pick is None:
        return "empty sampled cone at the crossing point"
    rho_star = min(float(cone.realizations[pick]), r_eff)
    if not rho_star > half:
        return (
            f"realized radius {rho_star:.6g} at the crossing did not clear "
            f"half the target {half:.6g}"
        )
    y_eps = a_eps + rho_star * cone.directions[pick]
    separation = norm(y_eps - x)
    inter = {
        "a_x": as_tuple(loop.a_x),
        "rho_x": rho_x,
        "eps": loop.eps,
        "z_eps": as_tuple(z_eps),
        "a_eps": as_tuple(a_eps),
        "y_eps": as_tuple(y_eps),
        "rho_star": rho_star,
    }
    if separation <= target - rho_star:
        return y_eps, "C1.2.1", inter
    if separation < rho_star:
        center = x.copy() if separation <= tol else x + half * (y_eps - x) / separation
        return center, "C1.2.2", inter
    try:
        rho_eps = bridging_ball_radius(rho_x, separation, rho_star)
    except ConstructionError as exc:
        return str(exc)
    inter["rho_eps"] = rho_eps
    if not rho_eps > half:
        # Diagnostic only: the bridging radius clears half the cover
        # radius exactly when the separation stays below
        # (clearance^2 + sqrt(quartic)) / cover; report how far off.
        quartic = rho_x**4 + rho_star**4 - rho_star**2 * rho_x**2
        bound = (rho_x**2 + math.sqrt(quartic)) / rho_star
        return (
            f"bridging radius {rho_eps:.6g} below half target {half:.6g} "
            f"(separation {separation:.6g} vs bound {bound:.6g}); shrinking"
        )
    return x + half * (y_eps - x) / separation, "C1.2.3", inter


def construct_witness(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    x,
    delta_list=(1.0, 10.0, 100.0),
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> WitnessBall:
    """``construct_witness_many`` at one exterior point."""
    return construct_witness_many(desc, radius_field, [x], delta_list, density, seed, rho_max)[0]


def construct_witness_many(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    X,
    delta_list=(1.0, 10.0, 100.0),
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> list[WitnessBall]:
    """Build and validate the witness of each exterior point, a row of X.

    Finite cover radius: a closed ball through x of exactly that radius,
    checked against the distance oracle.  Infinite cover radius: a unit
    direction whose tangent delta-balls are checked for every requested
    delta (the infinite family is never represented as a ball).  Every row
    is built as its one-row call would build it; when rows fail (a point in
    the set, a bad coordinate list, a radius rule that fails), the error of
    the first failing row is raised.
    """
    out: list = [None] * len(X)
    points = {}
    for i, x in enumerate(X):
        try:
            points[i] = as_vec(x, dim=desc.dim)
        except GeometryError as exc:
            out[i] = exc
    rows, P = list(points), np.asarray(list(points.values())).reshape(-1, desc.dim)
    inside = desc.contains_many(P, per_row=True)
    for i, x, member in zip(rows, P, inside):
        if member:
            out[i] = GeometryError(f"{x.tolist()} lies in the set; witnesses cover the complement")
    rows, P = [i for i, member in zip(rows, inside) if not member], P[~inside]
    scored, attained = [], []  # positions in P, attaining projections
    for k, proj in enumerate(desc.project_many(P)):
        try:
            attained.append(attaining_projection(radius_field, proj))
            scored.append(k)
        except _ROW_ERRORS as exc:
            out[rows[k]] = exc
    witnesses = _witnesses(desc, radius_field, P[scored], attained, delta_list, density, seed, rho_max)
    for k, w in zip(scored, witnesses):
        out[rows[k]] = w
    for w in out:
        if isinstance(w, Exception):
            raise w
    return out


def _witnesses(desc, radius_field, X, attained, delta_list, density, seed, rho_max) -> list:
    """The witness of each exterior row of X, given its attaining projection
    (``attaining_projection``), or the GeometryError or ConstructionError
    that row's construction raised."""
    density = default_density(desc.dim) if density is None else density
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    tol = desc.realize_tol
    deltas = _deltas(desc, delta_list)
    out: list = [None] * len(X)
    balls = []  # (row, center, radius, tag, intermediates, note on failure)
    directions = []  # (row, direction, tag, intermediates, note)
    undecided = []  # (row, zeta, intermediates): is a_x on the boundary of the interior?
    for i, (x, (a_x, labels, proj, rho)) in enumerate(zip(X, attained)):
        inter = {"a_x": as_tuple(a_x), "rho_x": proj.distance, "labels": labels}
        try:
            zeta = normalized(x - a_x)
        except GeometryError as exc:
            out[i] = exc
            continue
        if math.isfinite(rho) and rho < proj.distance:
            balls.append((i, x, rho, "C1-direct", inter, "direct ball failed oracle validation"))
        else:
            undecided.append((i, zeta, inter))
    loops, zetas = [], {}
    if undecided:
        A = np.asarray([attained[i][0] for i, _, _ in undecided])
        on, inner = _ask(desc.boundary_of_interior_many, A)
        for (i, zeta, inter), a_x, is_on, is_inner in zip(undecided, A, on, inner):
            x, rho = X[i], attained[i][-1]
            if not is_on:
                out[i] = GeometryError(f"point {a_x.tolist()} is not on the set boundary")
            elif is_inner:
                zetas[i] = zeta
                target = 2.0 * rho if math.isfinite(rho) else 4.0 * max(deltas)
                loops.append(_Loop(i, x, a_x, inter["rho_x"], target, not math.isfinite(rho)))
            elif math.isfinite(rho):
                balls.append((
                    i, x + rho * zeta, rho, "C1.1", inter,
                    "outward ball failed validation; condition violated near the projection",
                ))
            else:
                directions.append((i, zeta, "C2.1", inter, ""))
    ended = _epsilon_loops(desc, radius_field, loops, density, rho_max, seed)
    for loop in loops:
        w = ended[loop.row]
        if not loop.synthetic or isinstance(w, Exception):
            out[loop.row] = w
        elif not w.ok:
            out[loop.row] = WitnessBall(
                as_tuple(loop.x), "failed", ok=False, intermediates=w.intermediates,
                note=f"synthetic finite run failed: {w.note}",
            )
        else:
            offset = np.asarray(w.ball.center) - loop.x
            u = zetas[loop.row] if norm(offset) <= tol else normalized(offset)
            inter = dict(w.intermediates)
            inter["synthetic_target"] = loop.target
            inter["synthetic_case"] = w.case_tag
            directions.append(
                (loop.row, u, "C2-finite-delta", inter, f"via synthetic target {loop.target:.6g}")
            )

    if balls:
        C = np.asarray([center for _, center, _, _, _, _ in balls])
        holds = _balls_hold(desc, X[[b[0] for b in balls]], C, [b[2] for b in balls], tol)
        for (i, center, radius, tag, inter, failure), ok in zip(balls, holds):
            x = as_tuple(X[i])
            try:
                out[i] = (
                    WitnessBall(x, tag, ball=Ball(center, radius), intermediates=inter) if ok
                    else WitnessBall(x, "failed", ok=False, intermediates=inter, note=failure)
                )
            except GeometryError as exc:
                out[i] = exc
    if directions:
        U = np.asarray([u for _, u, _, _, _ in directions])
        X_dir = X[[d[0] for d in directions]]
        D = np.asarray(deltas, dtype=float)
        P = X_dir[:, None, :] + D[None, :, None] * U[:, None, :]
        clearance = _ask(desc.distance_many, P.reshape(-1, desc.dim)).reshape(len(U), len(D))
        for (i, u, tag, inter, note), clear in zip(directions, clearance):
            ok = bool(np.all(clear >= D - tol))
            out[i] = WitnessBall(
                as_tuple(X[i]), tag, direction=as_tuple(u), intermediates=inter,
                delta_checks=tuple((float(d), float(c)) for d, c in zip(deltas, clear)), ok=ok,
                note=note if ok else "a requested delta-ball met the set",
            )
    return out


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
    from that projection, and the witnesses of all samples are built in one
    batch.  Finite cover radius: the witness ball must contain the sample
    and keep the full cover radius away from the set.  Infinite cover
    radius: the witness direction must admit the tangent family of closed
    delta-balls for every delta of the list (the scene diameter when it is
    empty).  Both tests allow the scene's ball tolerance.
    """
    tol = desc.ball_tol
    deltas = _deltas(desc, delta_list)
    pts = desc.sample_exterior(samples, seed=seed)
    outcome: list = [None] * len(pts)
    scored, attained = [], []
    for i, proj in enumerate(desc.project_many(pts)):
        try:
            attained.append(attaining_projection(radius_field, proj))
            scored.append(i)
        except _ROW_ERRORS as exc:
            outcome[i] = CoverViolation(as_tuple(pts[i]), "radius-error", str(exc))
    witnesses = _witnesses(desc, radius_field, pts[scored], attained, deltas, density, seed, rho_max)
    for i, (*_, rho), witness in zip(scored, attained, witnesses):
        outcome[i] = (rho, witness)
    violations: list[CoverViolation] = []
    for x, result in zip(pts, outcome):
        point = as_tuple(x)
        if isinstance(result, CoverViolation):
            violations.append(result)
            continue
        rho, witness = result
        if isinstance(witness, Exception):
            violations.append(CoverViolation(point, "witness-error", str(witness)))
        elif not witness.ok:
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
