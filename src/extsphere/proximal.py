"""Proximal normal cone queries.

The central objects are the proximal normal inequality
``<zeta, x - a> <= sigma * ||x - a||^2`` over the set, its tangent-sphere
realization (the open ball of radius rho tangent at the base point along the
direction misses the set), the largest realizing radius, its cap by a
boundary radius field, directional distances along rays, and deterministic
sampling of the unit normal cone at a boundary point.

Realization at radius rho is equivalent to the proximal inequality with
``sigma = 1/(2 rho)``; emptiness of the tangent ball is decided through the
analytic distance function, which is far better conditioned than probing the
inequality itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    INF, GeometryError, as_vec, bisect, ensure_ext_real, ext_min, norm, normalized, unit,
    unit_direction_grid,
)
from .sets import ClosedSetDesc, _owners, owning_leaves

# Smallest sphere radius at which cone membership is probed.
RHO_MIN = 1e-6

# Default direction sweep densities per ambient dimension.
DENSITY_2D = 720
DENSITY_3D = 2000

# rho_max defaults to this multiple of the scene diameter; realization at
# rho_max is reported as +inf (a finite test cannot certify an unbounded
# claim, so the cap and the protocol are part of every report).
RHO_MAX_FACTOR = 1e3

_BISECT_REL_TOL = 1e-9


class NotRealizedError(ValueError):
    """The direction is not realized even at the smallest probed radius."""


def default_density(dim: int) -> int:
    return DENSITY_2D if dim == 2 else DENSITY_3D


def default_rho_max(desc: ClosedSetDesc) -> float:
    return RHO_MAX_FACTOR * desc.diameter


# ---------------------------------------------------------------------------
# Radius fields
# ---------------------------------------------------------------------------

_EXPR_NAMES = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "sqrt": math.sqrt,
    "exp": math.exp, "log": math.log, "abs": abs, "min": min, "max": max,
    "atan2": math.atan2, "hypot": math.hypot, "floor": math.floor,
    "ceil": math.ceil, "pi": math.pi, "e": math.e, "inf": INF,
}


def _compile_rule(source: str):
    import ast

    tree = ast.parse(source, mode="eval")
    allowed = (
        ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
        ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod,
        ast.USub, ast.UAdd, ast.Compare, ast.Lt, ast.Gt, ast.LtE, ast.GtE,
        ast.IfExp, ast.Tuple,
    )
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise GeometryError(f"unsupported syntax in radius rule {source!r}")
        if isinstance(node, ast.Name) and node.id not in ("x", "y", "z", *_EXPR_NAMES):
            raise GeometryError(f"unknown name {node.id!r} in radius rule {source!r}")
        if isinstance(node, ast.Call) and (
            not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_NAMES
        ):
            raise GeometryError(f"unsupported call in radius rule {source!r}")
    return compile(tree, "<radius-rule>", "eval")


@dataclass
class RadiusRule:
    """Constant or coordinate-expression rule for one boundary component."""

    source: str
    constant: float | None = None
    code: object = None

    @staticmethod
    def parse(source) -> "RadiusRule":
        if isinstance(source, (int, float)):
            return RadiusRule(repr(source), constant=ensure_ext_real(float(source), "radius"))
        text = str(source).strip()
        try:
            value = float(text)
        except ValueError:
            return RadiusRule(text, code=_compile_rule(text))
        return RadiusRule(text, constant=ensure_ext_real(value, "radius"))

    def value_at(self, p: np.ndarray) -> float:
        if self.constant is not None:
            return self.constant
        env = {"x": float(p[0]), "y": float(p[1])}
        if p.shape[0] > 2:
            env["z"] = float(p[2])
        value = float(eval(self.code, {"__builtins__": {}}, {**_EXPR_NAMES, **env}))
        if not value > 0.0:
            raise GeometryError(f"radius rule {self.source!r} produced {value!r} at {p.tolist()}")
        return value


@dataclass
class RadiusField:
    """Boundary radius field: one rule per labeled component, values in (0, inf].

    Continuity within each component is the scene author's declaration; it is
    spot-checked by ``validate_continuity`` against a declared Lipschitz bound.
    """

    rules: dict[str, RadiusRule]
    lipschitz: float | None = None

    @staticmethod
    def constant(desc: ClosedSetDesc, value: float) -> "RadiusField":
        rule = RadiusRule.parse(value)
        return RadiusField({leaf.label: rule for leaf in desc.leaves}, lipschitz=0.0)

    @staticmethod
    def from_sources(sources: dict[str, object], lipschitz: float | None = None) -> "RadiusField":
        return RadiusField({k: RadiusRule.parse(v) for k, v in sources.items()}, lipschitz)

    def covers(self, desc: ClosedSetDesc) -> list[str]:
        return [leaf.label for leaf in desc.leaves if leaf.label not in self.rules]

    def value(self, p, labels) -> float:
        """Radius at a boundary point carrying one or more component labels.

        A point on several components takes the smallest applicable value.
        """
        p = np.asarray(p, dtype=float)
        if isinstance(labels, str):
            labels = (labels,)
        known = [lab for lab in labels if lab in self.rules]
        if not known:
            raise GeometryError(f"no radius rule covers labels {tuple(labels)!r}")
        value = min(self.rules[lab].value_at(p) for lab in known)
        if not value > 0.0:
            raise GeometryError(f"radius must be positive, got {value!r} at {p.tolist()}")
        return value

    def validate_continuity(self, desc: ClosedSetDesc, seed: int = 0) -> bool:
        """Sampled Lipschitz audit |r(p)-r(q)| <= L ||p-q|| + 1e-9 over 1000
        pairs per component."""
        if self.lipschitz is None:
            return True
        pairs = 1000
        rng = np.random.default_rng(seed)
        samples = desc.sample_boundary(max(64, pairs // 4), seed=seed)
        by_label: dict[str, list[np.ndarray]] = {}
        for p, lab in samples:
            by_label.setdefault(lab, []).append(p)
        checked = 0
        for lab, pts in by_label.items():
            if lab not in self.rules or len(pts) < 2:
                continue
            pts_arr = np.asarray(pts)
            while checked < pairs:
                i, j = rng.integers(len(pts), size=2)
                if i == j:
                    continue
                p, q = pts_arr[i], pts_arr[j]
                rp, rq = self.rules[lab].value_at(p), self.rules[lab].value_at(q)
                if math.isinf(rp) or math.isinf(rq):
                    if rp != rq:
                        return False
                elif abs(rp - rq) > self.lipschitz * norm(p - q) + 1e-9:
                    return False
                checked += 1
            checked = 0
        return True


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass
class NormalCheck:
    """Outcome of a proximal-normal-inequality probe; falsy when violated."""

    ok: bool
    certificate: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class RealizationCheck:
    """Outcome of a tangent-ball emptiness test.

    ``margin`` is distance(set, tangent center) - rho; exact tangency gives 0.
    """

    ok: bool
    margin: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Cone:
    """A sampled unit proximal normal cone at one base point: one unit
    direction per row of ``directions`` (k, d) and its realization radius in
    ``realizations`` (k,).  ``len`` is the cone size k."""

    directions: np.ndarray
    realizations: np.ndarray

    def __len__(self) -> int:
        return self.directions.shape[0]


# ---------------------------------------------------------------------------
# Core predicates
# ---------------------------------------------------------------------------


def realization_margins(desc: ClosedSetDesc, a: np.ndarray, dirs: np.ndarray, rhos) -> np.ndarray:
    """distance(set, a + rho*dir) - rho for each direction (vectorized); a is
    one base point, or one per direction row."""
    rhos = np.asarray(rhos, dtype=float)
    return desc.distance_many(a + rhos[..., None] * dirs) - rhos


def is_realized_by_sphere(desc: ClosedSetDesc, a, zeta, rho: float) -> RealizationCheck:
    """Whether the open ball of radius rho tangent at a along zeta misses the set.

    Decided by distance(set, a + rho*zeta) >= rho - realize_tol.  The
    margin is never positive for a genuine boundary point (the base point
    itself sits at distance exactly rho from the center), so the test is a
    tangency test.
    """
    a = as_vec(a, dim=desc.dim)
    zeta = unit(zeta)
    rho = float(rho)
    if not (rho > 0.0 and math.isfinite(rho)):
        raise GeometryError(f"sphere radius must be positive and finite, got {rho!r}")
    margin = float(realization_margins(desc, a, zeta[None, :], rho)[0])
    return RealizationCheck(margin >= -desc.realize_tol, margin)


def is_proximal_normal(
    desc: ClosedSetDesc,
    a,
    zeta,
    sigma: float,
    probes: int = 512,
    seed: int = 0,
) -> NormalCheck:
    """Probe the proximal normal inequality over set points.

    Probes combine boundary samples, grid-oracle points of the set, and
    geometrically shrinking local boundary draws around the base point (the
    inequality only bites at quadratic scale near the base).  A failure
    carries the violating set point as certificate.
    """
    a = as_vec(a, dim=desc.dim)
    if not desc.on_boundary(a):
        raise GeometryError(f"point {a.tolist()} is not on the set boundary")
    zeta = unit(zeta)
    sigma = float(sigma)
    if sigma < 0.0:
        raise GeometryError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    pools = [np.asarray([p for p, _ in desc.sample_boundary(max(8, probes // 2), seed=seed)])]
    pools.append(desc.oracle.probe_points(probes, rng))
    # The inequality only bites at quadratic scale near the base point, so
    # probe geometrically shrinking neighborhoods: parametric boundary
    # neighbors from the leaves owning a (exact even on thin components) plus
    # rejection draws for full-dimensional parts.  One membership call
    # keeps the set points of all draws: every chunk has two rows or more,
    # and membership gives the same bits on any batch of two rows or more.
    local = []
    owners = owning_leaves(desc.leaves, a, desc.cluster_tol)
    for k in range(2, 46):
        scale = desc.diameter * 2.0**-k
        for leaf in owners:
            nearby = leaf.local_boundary_points(a, scale)
            if nearby is not None:
                local.append(nearby)
        if k <= 40:
            raw = rng.normal(size=(8, desc.dim))
            local.append(a + scale * raw / np.linalg.norm(raw, axis=1, keepdims=True))
    local = np.concatenate(local, axis=0)
    pools.append(local[desc.contains_many(local)])
    pts = np.concatenate(pools, axis=0)
    w = pts - a
    lhs = w @ zeta
    rhs = sigma * np.sum(w * w, axis=1)
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    if slack[worst] < -desc.realize_tol:
        return NormalCheck(False, pts[worst].copy())
    return NormalCheck(True)


def realization_radius(
    desc: ClosedSetDesc,
    a,
    zeta,
    rho_max: float | None = None,
) -> float:
    """Largest rho at which the direction is realized by a rho-sphere.

    Bisection over [RHO_MIN, rho_max] using the monotonicity of realization
    (realized at rho implies realized at every smaller radius).  Realization
    at rho_max itself reports +inf under the documented cap protocol; convex
    sets short-circuit to exact +inf.  Raises NotRealizedError when even the
    RHO_MIN sphere meets the set.
    """
    a = as_vec(a, dim=desc.dim)
    zeta = unit(zeta)
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    if not is_realized_by_sphere(desc, a, zeta, RHO_MIN):
        raise NotRealizedError(
            f"direction {zeta.tolist()} at {a.tolist()} is not realized at rho={RHO_MIN}"
        )
    return float(_batch_realizations(desc, a[None, :], zeta[None, :], rho_max)[0])


def capped_realization_radius(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    a,
    zeta,
    rho_max: float | None = None,
) -> float:
    """Realization radius capped by the boundary radius field at the base.

    Equals the raw realization radius whenever the field is +inf there.
    """
    a = as_vec(a, dim=desc.dim)
    cap = radius_field.value(a, desc.boundary_labels_at(a))
    return ext_min(realization_radius(desc, a, zeta, rho_max=rho_max), cap)


def directional_distance(desc: ClosedSetDesc, x, zeta, t_max: float) -> float:
    """First hitting parameter min{t in [0, t_max] : x + t*zeta in the set}.

    Computed from exact ray-membership intervals (closed-form per leaf), so
    thin components are hit exactly; +inf when the ray misses within t_max.
    """
    x = as_vec(x, dim=desc.dim)
    zeta = unit(zeta)
    if not t_max > 0.0:
        raise GeometryError("t_max must be positive")
    spans = desc.ray_membership_intervals(x, zeta)
    t = spans.first_point_at_or_after(0.0)
    return t if t <= t_max else INF


def directional_distance_marched(
    desc: ClosedSetDesc, x, zeta, t_max: float, step: float | None = None, polish_tol: float = 1e-9
) -> float:
    """March-and-bisect reference for full-dimensional sets (test oracle).

    Steps along the ray at the grid resolution, then bisects the membership
    flip and polishes to polish_tol.  Thin components can slip between the
    steps, which is why the interval route above is the primary path.
    """
    x = as_vec(x, dim=desc.dim)
    zeta = unit(zeta)
    step = desc.oracle.h if step is None else step
    if desc.contains(x):
        return 0.0
    ts = np.arange(0.0, t_max + step, step)
    pts = x[None, :] + ts[:, None] * zeta[None, :]
    hits = desc.contains_many(pts)
    idx = np.nonzero(hits)[0]
    if idx.size == 0:
        return INF
    hi = float(ts[idx[0]])
    lo = float(ts[idx[0] - 1]) if idx[0] > 0 else 0.0
    _, hi = bisect(lambda t: not desc.contains(x + t * zeta), lo, hi, width=polish_tol)
    return hi


def first_boundary_return(desc: ClosedSetDesc, a, zeta) -> float:
    """First positive parameter at which the ray from a meets the set again.

    The base point is itself on the boundary; its degenerate touch at t=0 is
    discarded below a floor of the membership tolerance (at least 1e-12).
    Rays that slide inside the set through the floor report the floor itself
    (callers then skip the direction).
    """
    a = as_vec(a, dim=desc.dim)
    zeta = unit(zeta)
    t_floor = max(1e-12, desc.membership_tol)
    spans = desc.ray_membership_intervals(a, zeta)
    return spans.first_entry_after(t_floor)


@functools.cache
def _direction_grid(dim: int, density: int) -> tuple[np.ndarray, np.ndarray]:
    """The direction grid of a (dim, density) sweep and its rows rounded to
    9 digits, built once; rows repeating an earlier one at 9 digits are
    dropped.  Arrays, not a dict of row tuples: thousands of small objects
    kept for the life of the process fragment the heap (that raised the
    peak resident memory of a run of 3D polytope checks by 10%)."""
    grid = unit_direction_grid(dim, density)
    _, keep = np.unique(np.round(grid, 9), axis=0, return_index=True)
    grid = grid[np.sort(keep)]
    keys = np.round(grid, 9)
    grid.flags.writeable = keys.flags.writeable = False
    return grid, keys


def sample_unit_normals(
    desc: ClosedSetDesc,
    a,
    density: int | None = None,
    rho_max: float | None = None,
    extra_directions=None,
    with_realizations: bool = True,
) -> Cone:
    """``sample_unit_normals_many`` at one boundary point."""
    a = as_vec(a, dim=desc.dim)
    if not desc.on_boundary(a):
        raise GeometryError(f"point {a.tolist()} is not on the set boundary")
    extra = None if extra_directions is None else [extra_directions]
    return sample_unit_normals_many(desc, a[None, :], density, rho_max, extra, with_realizations)[0]


# Rows of one grid-sweep or realization-bisection batch.  A batch takes
# whole base points, so it holds at least the rows of one point, and stays
# within this many rows unless one point alone exceeds it, which bounds the
# memory a batch takes.  Leaf distances give every row its one-row bits at
# any row count; half-space and slab membership, which an intersection's
# distance reads, gives the same bits on any batch of two rows or more, and
# a point's direction grid alone has more.
BATCH_ROWS = 16384


def _batches(counts):
    """Slices of consecutive base points with at most ``BATCH_ROWS`` rows
    in all (one point alone may exceed it)."""
    start, rows = 0, 0
    for i, count in enumerate(counts):
        if rows and rows + count > BATCH_ROWS:
            yield slice(start, i)
            start, rows = i, 0
        rows += count
    if start < len(counts):
        yield slice(start, len(counts))


def sample_unit_normals_many(
    desc: ClosedSetDesc,
    A,
    density: int | None = None,
    rho_max: float | None = None,
    extra_directions=None,
    with_realizations: bool = True,
) -> list[Cone]:
    """Sampled unit proximal normal cone at each boundary point, a row of A.

    Sweeps a deterministic direction grid augmented with the analytic normal
    candidates of the leaves owning the point and its extra directions
    (``extra_directions`` holds one sequence of directions per row, or is
    None; each candidate is dropped when it equals a grid row or an earlier
    candidate at 9 digits), and keeps the directions whose RHO_MIN tangent
    sphere misses the set up to the margin noise (the proximal inequality
    at sigma = 1/(2 RHO_MIN)).  A grid direction a fraction of a step off a
    normal can pass that test too, so a leaf normal that passes absorbs the
    grid directions within one grid step (2 pi / density) of it; the grid's
    own copy of that normal stays.  Every returned direction is, bit for
    bit, a grid row, a leaf normal or an extra direction.  Returns one
    ``Cone`` per row: the kept directions (k, d) and their realization
    radii (k,), NaN without ``with_realizations``.  A cone may be empty: it
    can be trivial, and every verdict downstream is explicitly "at tested
    density".

    The rows must be boundary points: the caller's classification of them
    (``sample_boundary``, ``boundary_of_interior_many``) is the one that
    decides, and no second check on another row count can overrule it.
    All rows share one owning-leaf query; the sweep and the realization
    bisection go over the rows of many points at once, in ``_batches``.
    The arithmetic is per row and every bisection runs the same number of
    steps, so each cone equals, bit for bit, the cone of its one-row call.
    """
    A = np.asarray(A, dtype=float).reshape(-1, desc.dim)
    density = default_density(desc.dim) if density is None else density
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    grid, grid_keys = _direction_grid(desc.dim, density)
    owns = _owners(desc.leaves, A, desc.cluster_tol)
    if extra_directions is None:
        extra_directions = [None] * A.shape[0]
    sweeps = []  # per point: all_dirs and the rows of its leaf normals
    for i, a in enumerate(A):
        cand = [d for leaf, own in zip(desc.leaves, owns) if own[i] for d in leaf.normal_directions(a)]
        leaf_count = len(cand)
        if extra_directions[i] is not None:
            cand.extend(normalized(d) for d in extra_directions[i])
        # Row of each candidate in all_dirs: the grid row or earlier
        # candidate equal to it at 9 digits, else a new row after the grid.
        rows, extra, fresh = [], [], {}
        for d in cand:
            key = np.round(d, 9)
            on_grid = np.flatnonzero((grid_keys == key).all(axis=1))
            if on_grid.size:
                rows.append(int(on_grid[0]))
                continue
            key = tuple(key.tolist())
            if key not in fresh:
                fresh[key] = len(grid) + len(extra)
                extra.append(d)
            rows.append(fresh[key])
        all_dirs = np.concatenate([grid, np.asarray(extra)]) if extra else grid
        sweeps.append((all_dirs, rows[:leaf_count]))
    margins = _per_point(
        A, [dirs for dirs, _ in sweeps], lambda B, D, _: realization_margins(desc, B, D, RHO_MIN)
    )
    noise = desc.margin_noise
    step_cos = math.cos(2.0 * math.pi / density)
    directions = []
    for (all_dirs, leaf_rows), m in zip(sweeps, margins):
        kept = np.flatnonzero(m >= -noise)
        # A grid direction a fraction of a step off a leaf normal has a
        # margin of about -RHO_MIN * angle^2 / 2, which can sit inside the
        # noise band: each leaf normal that passes absorbs the grid
        # directions within one grid step of it, keeping the grid's own
        # copy of itself.
        normals = [row for row in leaf_rows if m[row] >= -noise]
        if normals:
            near = np.max(all_dirs[kept] @ all_dirs[normals].T, axis=1) > step_cos
            kept = kept[~(near & (kept < len(grid)) & ~np.isin(kept, normals))]
        directions.append(all_dirs[kept])
    if with_realizations:
        reals = _per_point(A, directions, lambda B, D, _: _batch_realizations(desc, B, D, rho_max))
    else:
        reals = [np.full(len(dirs), math.nan) for dirs in directions]
    return [Cone(dirs, r) for dirs, r in zip(directions, reals)]


def _per_point(A, dirs, query) -> list[np.ndarray]:
    """``query(bases, directions, rows)`` over the direction rows of every
    row of A (``dirs`` holds one (k, d) array per row of A), asked
    ``_batches`` at a time; ``rows(values)`` repeats one value per point
    onto that point's direction rows (``bases`` is ``rows(A)``).  Returns
    one result array per row of A."""
    sizes = [len(d) for d in dirs]
    out = []
    for part in _batches(sizes):
        def rows(values, part=part):
            return np.repeat(values[part], sizes[part], axis=0)

        ends = list(itertools.accumulate(sizes[part]))
        flat = query(rows(A), np.concatenate(dirs[part]), rows) if ends[-1] else np.empty(0)
        out.extend(flat[lo:hi] for lo, hi in zip([0] + ends, ends))
    return out


def cone_margins(desc: ClosedSetDesc, A, cones, rhos) -> list[np.ndarray]:
    """Realization margin of every direction of each cone at its base point
    (a row of A) and radius (one per cone), asked in as few calls as
    ``_batches`` allows; one margin array per cone."""
    rhos = np.asarray(rhos, dtype=float)
    return _per_point(
        np.asarray(A, dtype=float), [c.directions for c in cones],
        lambda B, D, rows: realization_margins(desc, B, D, rows(rhos)),
    )


def _batch_realizations(desc, a, dirs, rho_max) -> np.ndarray:
    """Realization radius of each direction row at its base point (a row of
    a per direction row), bisected in lockstep.  Every bracket starts as
    [RHO_MIN, rho_max], so every row stops after the same halvings."""
    if desc.is_convex():
        return np.full(dirs.shape[0], INF)
    tol = desc.realize_tol
    at_cap = realization_margins(desc, a, dirs, rho_max) >= -tol
    out = np.full(dirs.shape[0], INF)
    todo = ~at_cap
    if not np.any(todo):
        return out
    sub = dirs[todo]
    base = a[todo]
    lo, hi = bisect(
        lambda mid: realization_margins(desc, base, sub, mid) >= -tol,
        np.full(sub.shape[0], RHO_MIN), np.full(sub.shape[0], rho_max),
        width=_BISECT_REL_TOL * rho_max,
    )
    out[todo] = 0.5 * (lo + hi)
    return out


def best_normal(cone: Cone, reference=None) -> int | None:
    """Row of the sampled normal with maximal realization; ties break toward
    the smallest angle against the reference direction, then
    lexicographically.  None for an empty cone."""

    def key(i):
        d = cone.directions[i]
        angle_key = 0.0 if reference is None else -float(np.dot(d, reference))
        return (-cone.realizations[i], angle_key, tuple(d))

    return min(range(len(cone)), key=key, default=None)
