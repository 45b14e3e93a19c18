"""Closed-set descriptions over analytic primitives.

A set is a CSG tree whose leaves are labeled analytic primitives (half-space,
closed ball, ball complement, slab, affine subspace, finite point set) and
whose internal nodes are a union or an intersection.  Every query needed
downstream is exposed here: membership, distance, projection (multi-valued,
returned as cluster representatives), interior membership, boundary-of-interior
classification, boundary sampling with component labels, ray-membership
intervals, and an independent grid/point-cloud brute-force oracle.

Version-1 restriction: intersections must have convex leaves only, so their
projections are exact: the closest point is the nearest feasible one among
finitely many active-set candidates (see ``Intersection``).  General
intersections are rejected at load.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import (
    INF,
    GeometryError,
    IntervalSet,
    as_vec,
    norm,
    normalized,
)


class SetError(ValueError):
    """A set description violates the supported grammar or its invariants."""


def _as_points(P, dim: int) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    if P.ndim != 2 or P.shape[1] != dim:
        raise GeometryError(f"expected points of dimension {dim}, got shape {P.shape}")
    return P


# ---------------------------------------------------------------------------
# Primitive leaves
# ---------------------------------------------------------------------------


class Primitive:
    """Interface shared by all leaves.  Points arrive as (m, n) arrays.

    The CSG nodes ``Union`` and ``Intersection`` answer the same queries
    (membership, interior, distance, labeled projection candidates, ray
    intervals, regularization, ``leaves``, ``convex``).  Tolerances arrive as
    arguments and are never stored on a node, because nodes are shared
    between descriptions; leaves ignore ``tol``, the membership tolerance
    that only intersections need.
    """

    label: str
    dim: int
    convex: bool = False

    @property
    def leaves(self) -> list:
        return [self]

    def contains_many(self, P: np.ndarray, tol: float, per_row: bool = False) -> np.ndarray:
        """Membership within tol of each row; ``per_row`` asks for every
        row's one-row bits (see ``ClosedSetDesc.contains_many``)."""
        raise NotImplementedError

    def interior_many(self, P: np.ndarray, tol: float) -> np.ndarray:
        raise NotImplementedError

    def distance_many(self, P: np.ndarray, tol: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def boundary_distance_many(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_many(self, X: np.ndarray) -> np.ndarray:
        """One closest point per row (unique for convex leaves).  Dots and
        norms are taken per row (``np.vecdot``), so a row's point does not
        depend on the other rows of X."""
        raise NotImplementedError

    def projection_exact(self, X: np.ndarray) -> np.ndarray:
        """Whether the closest point returned for each row is certified."""
        return np.ones(X.shape[0], dtype=bool)

    def labeled_candidates(self, X, tol: float, cluster_tol: float) -> list[tuple]:
        """Candidate closest points of the rows of X, as columns
        ``(points (n, d), labels, exact (n,), offered (n,) or None)``: labels
        is one tuple for the whole column or a list of one tuple per row, and
        ``offered`` masks the rows the column holds a candidate for (None:
        all of them)."""
        return [(self.project_many(X), (self.label,), self.projection_exact(X), None)]

    def ray_intervals(self, x: np.ndarray, d: np.ndarray, snap: float) -> IntervalSet:
        """Parameters t >= 0 with x + t d inside the leaf."""
        raise NotImplementedError

    def boundary_points(self, count: int, rng: np.random.Generator, box) -> np.ndarray:
        """Points on the leaf boundary, drawn from rng.

        Spheres return count points, inside the box or not; a point set
        returns its points.  Half-spaces and affine subspaces return up to
        count points inside the box, found by rejection with at most 200
        tries per point, or, when no try lands inside, the leaf's fallback
        point alone (a half-space's anchor ``offset * normal``, an affine
        subspace's ``point``), which lies outside the box whenever the leaf
        misses it.  A slab asks its upper face for ``max(1, count // 2)``
        points and its lower face for the rest.  A call consumes rng exactly
        as one-row draws, one row of uniforms per try, would.
        """
        raise NotImplementedError

    def normal_directions(self, a: np.ndarray) -> list[np.ndarray]:
        """Analytic outward normal candidates at a boundary point."""
        return []

    def local_boundary_points(self, a: np.ndarray, scale: float) -> np.ndarray | None:
        """Boundary points of the leaf at distance ~scale from a, or None."""
        return None

    def interior_offset(self, a: np.ndarray, step: float) -> np.ndarray | None:
        """A point at distance <= step from a, analytically inside the leaf."""
        return None

    def regularized(self, box=None, tol: float = 0.0) -> "Primitive | None":
        """Closure of the node interior, or None when that is empty."""
        return None

    def finite_extent(self):
        """Axis-aligned (lo, hi) hull when bounded, else None."""
        return None


# Rows of uniforms drawn per block by ``_draw_inside``, at the least.
_BLOCK_ROWS = 256


def _draw_inside(count, rng, box, low, high, width, place, fallback) -> np.ndarray:
    """The first count rows of ``place(U)`` inside the box, U drawn from
    ``rng.uniform(low, high)`` one row of width per try, at most 200 * count
    tries; ``fallback`` alone when no try lands inside.

    The rows are drawn in blocks that never pass the cap, and the generator
    is then rewound to just after the last row used, so the stream is left
    where one-row draws leave it.  ``place`` must give each row the bits it
    gives that row alone.
    """
    lo, hi = box
    cap = 200 * count
    start = rng.bit_generator.state
    kept = []
    need, drawn, used = count, 0, 0
    while need > 0 and drawn < cap:
        rows = min(cap - drawn, max(_BLOCK_ROWS, drawn))
        Q = place(rng.uniform(low, high, size=(rows, width)))
        inside = np.flatnonzero(np.all((Q >= lo - 1e-12) & (Q <= hi + 1e-12), axis=1))[:need]
        kept.append(Q[inside])
        need -= inside.shape[0]
        used = drawn + (int(inside[-1]) + 1 if need == 0 else rows)
        drawn += rows
    if used < drawn:
        # ``advance`` counts 64-bit draws (one per uniform) and clears the
        # buffered 32-bit half, which uniform draws never touch.
        bitgen = rng.bit_generator
        bitgen.state = start
        bitgen.advance(used * width)
        bitgen.state = {**bitgen.state, "has_uint32": start["has_uint32"],
                        "uinteger": start["uinteger"]}
    if need == count:
        return np.array([fallback])
    return np.concatenate(kept)


def _clip_quadratic_leq(half_b: float, c: float, snap: float) -> list[tuple[float, float]]:
    """Solution intervals of t^2 + 2*half_b*t + c <= 0."""
    disc = half_b * half_b - c
    if disc < 0.0:
        if disc >= -snap * max(1.0, abs(c)):
            t = -half_b
            return [(t, t)] if t >= 0.0 else []
        return []
    root = math.sqrt(max(disc, 0.0))
    lo, hi = -half_b - root, -half_b + root
    if hi < 0.0:
        return []
    return [(max(lo, 0.0), hi)]


@dataclass(eq=False)
class HalfSpace(Primitive):
    """{x : <normal, x> <= offset}; the normal is unit-normalized on load."""

    normal: np.ndarray
    offset: float
    label: str = "halfspace"
    convex: bool = True

    def __post_init__(self):
        raw = as_vec(self.normal)
        length = norm(raw)
        if length == 0.0:
            raise SetError("half-space normal must be nonzero")
        self.normal = raw / length
        self.offset = float(self.offset) / length
        self.dim = self.normal.shape[0]

    def _gap(self, P, per_row=False):
        return (np.vecdot(P, self.normal) if per_row else P @ self.normal) - self.offset

    def contains_many(self, P, tol, per_row=False):
        return self._gap(P, per_row) <= tol

    def interior_many(self, P, tol):
        return self._gap(P) < -tol

    def distance_many(self, P, tol=0.0):
        # Per row (``np.vecdot``): a one-row ``P @ n`` is the dot chain
        # ``np.vecdot`` gives every row, while BLAS gemv (``_gap``) sums
        # two rows or more in another order.
        return np.maximum(0.0, np.vecdot(P, self.normal) - self.offset)

    def boundary_distance_many(self, P):
        return np.abs(self._gap(P))

    def project_many(self, X):
        g = np.vecdot(X, self.normal) - self.offset
        return X - np.where(g > 0.0, g, 0.0)[:, None] * self.normal

    def ray_intervals(self, x, d, snap):
        g0 = float(x @ self.normal - self.offset)
        g1 = float(d @ self.normal)
        if abs(g1) <= snap:
            return IntervalSet.whole(0.0) if g0 <= snap else IntervalSet.empty()
        t_star = -g0 / g1
        if g1 < 0.0:
            return IntervalSet([(max(t_star, 0.0), INF)])
        return IntervalSet([(0.0, t_star)]) if t_star >= 0.0 else IntervalSet.empty()

    def boundary_points(self, count, rng, box):
        n = self.normal

        def foot(P):
            # Per row (``np.vecdot``), as the one-row ``p @ n``.
            return P - (np.vecdot(P, n) - self.offset)[:, None] * n

        return _draw_inside(count, rng, box, *box, self.dim, foot, self.offset * n)

    def normal_directions(self, a):
        return [self.normal.copy()]

    def local_boundary_points(self, a, scale):
        n = self.normal
        foot = a - (float(a @ n) - self.offset) * n
        return np.asarray([q for t in _tangents(n) for q in (foot + scale * t, foot - scale * t)])

    def interior_offset(self, a, step):
        return a - 0.5 * step * self.normal

    def regularized(self, box=None, tol=0.0):
        return self


def _tangents(u) -> list[np.ndarray]:
    """Unit tangents at the unit vector u: each axis vector with its
    component along u removed, where that leaves a nonzero vector."""
    out = []
    for e in np.eye(u.shape[0]):
        t = e - float(e @ u) * u
        if norm(t) > 1e-9:
            out.append(t / norm(t))
    return out


@dataclass(eq=False)
class _Sphere(Primitive):
    """What a closed ball and the closure of its complement share: the
    sphere ``{x : ||x - center|| = radius}`` is the boundary of both."""

    center: np.ndarray
    radius: float
    label: str
    convex: bool

    def __post_init__(self):
        self.center = as_vec(self.center)
        self.radius = float(self.radius)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise SetError("ball radius must be positive and finite")
        self.dim = self.center.shape[0]

    def _r(self, P):
        return np.linalg.norm(P - self.center, axis=1)

    def boundary_distance_many(self, P):
        return np.abs(self._r(P) - self.radius)

    def boundary_points(self, count, rng, box):
        if self.dim == 2:
            theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        else:
            raw = rng.normal(size=(count, 3))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return self.center + self.radius * dirs

    def local_boundary_points(self, a, scale):
        w = a - self.center
        r = norm(w)
        if r == 0.0:
            return None
        radial = w / r
        angle = min(math.pi / 2.0, scale / self.radius)
        return np.asarray([
            self.center + self.radius * (math.cos(s) * radial + math.sin(s) * t)
            for t in _tangents(radial) for s in (angle, -angle)
        ])

    def regularized(self, box=None, tol=0.0):
        return self


@dataclass(eq=False)
class ClosedBall(_Sphere):
    label: str = "ball"
    convex: bool = True

    def contains_many(self, P, tol, per_row=False):
        return self._r(P) <= self.radius + tol

    def interior_many(self, P, tol):
        return self._r(P) < self.radius - tol

    def distance_many(self, P, tol=0.0):
        return np.maximum(0.0, self._r(P) - self.radius)

    def project_many(self, X):
        W = X - self.center
        r = np.sqrt(np.vecdot(W, W))
        out = X.copy()
        far = r > self.radius
        out[far] = self.center + (self.radius / r[far])[:, None] * W[far]
        return out

    def ray_intervals(self, x, d, snap):
        w = x - self.center
        half_b = float(w @ d)
        c = float(w @ w) - self.radius**2
        return IntervalSet(_clip_quadratic_leq(half_b, c, snap))

    def normal_directions(self, a):
        w = a - self.center
        r = norm(w)
        if r == 0.0:
            return []
        return [w / r]

    def interior_offset(self, a, step):
        w = self.center - a
        r = norm(w)
        if r == 0.0:
            return None
        return a + min(0.5 * step, 0.5 * self.radius) * (w / r)

    def finite_extent(self):
        return (self.center - self.radius, self.center + self.radius)


@dataclass(eq=False)
class BallComplement(_Sphere):
    """Closure of the complement of a ball: {x : ||x - center|| >= radius}."""

    label: str = "ballcomplement"
    convex: bool = False

    def contains_many(self, P, tol, per_row=False):
        return self._r(P) >= self.radius - tol

    def interior_many(self, P, tol):
        return self._r(P) > self.radius + tol

    def distance_many(self, P, tol=0.0):
        return np.maximum(0.0, self.radius - self._r(P))

    def project_many(self, X):
        W = X - self.center
        r = np.sqrt(np.vecdot(W, W))
        out = X.copy()
        near = r < self.radius
        W, r = W[near], r[near]
        # At the centre every sphere point is equidistant; pick a fixed
        # representative.
        centre = r == 0.0
        W[centre] = np.eye(self.dim)[0]
        r[centre] = 1.0
        out[near] = self.center + (self.radius / r)[:, None] * W
        return out

    def projection_exact(self, X):
        # At the centre every sphere point is closest; the fixed pick is not certified.
        W = X - self.center
        return ~(np.sqrt(np.vecdot(W, W)) < 1e-12)

    def ray_intervals(self, x, d, snap):
        w = x - self.center
        half_b = float(w @ d)
        c = float(w @ w) - self.radius**2
        inside = _clip_quadratic_leq(half_b, c, snap)
        if not inside:
            return IntervalSet.whole(0.0)
        lo, hi = inside[0]
        spans = []
        if lo > 0.0:
            spans.append((0.0, lo))
        spans.append((hi, INF))
        return IntervalSet(spans)

    def normal_directions(self, a):
        w = self.center - a
        r = norm(w)
        if r == 0.0:
            return []
        return [w / r]

    def interior_offset(self, a, step):
        w = a - self.center
        r = norm(w)
        if r == 0.0:
            return None
        return a + 0.5 * step * (w / r)


@dataclass(eq=False)
class Slab(Primitive):
    """{x : lo <= <normal, x> <= hi}."""

    normal: np.ndarray
    lo: float
    hi: float
    label: str = "slab"
    convex: bool = True

    def __post_init__(self):
        raw = as_vec(self.normal)
        length = norm(raw)
        if length == 0.0:
            raise SetError("slab normal must be nonzero")
        self.normal = raw / length
        self.lo = float(self.lo) / length
        self.hi = float(self.hi) / length
        if not self.lo <= self.hi:
            raise SetError("slab needs lo <= hi")
        self.dim = self.normal.shape[0]
        self._faces = (
            HalfSpace(self.normal, self.hi, label=self.label),
            HalfSpace(-self.normal, -self.lo, label=self.label),
        )

    def _g(self, P, per_row=False):
        return np.vecdot(P, self.normal) if per_row else P @ self.normal

    def contains_many(self, P, tol, per_row=False):
        g = self._g(P, per_row)
        return (g >= self.lo - tol) & (g <= self.hi + tol)

    def interior_many(self, P, tol):
        g = self._g(P)
        return (g > self.lo + tol) & (g < self.hi - tol)

    def distance_many(self, P, tol=0.0):
        # Per row, as ``HalfSpace.distance_many``.
        g = np.vecdot(P, self.normal)
        return np.maximum(0.0, np.maximum(g - self.hi, self.lo - g))

    def boundary_distance_many(self, P):
        g = self._g(P)
        return np.minimum(np.abs(g - self.lo), np.abs(g - self.hi))

    def project_many(self, X):
        g = np.vecdot(X, self.normal)
        out = X.copy()
        above, below = g > self.hi, g < self.lo
        out[above] -= (g[above] - self.hi)[:, None] * self.normal
        out[below] += (self.lo - g[below])[:, None] * self.normal
        return out

    def ray_intervals(self, x, d, snap):
        upper, lower = self._faces
        return upper.ray_intervals(x, d, snap).intersect(lower.ray_intervals(x, d, snap))

    def boundary_points(self, count, rng, box):
        top, bot = self._faces
        half = max(1, count // 2)
        pts = [top.boundary_points(half, rng, box), bot.boundary_points(count - half, rng, box)]
        return np.concatenate(pts, axis=0)

    def normal_directions(self, a):
        g = float(a @ self.normal)
        out = []
        if abs(g - self.hi) <= abs(g - self.lo):
            out.append(self.normal.copy())
        if abs(g - self.lo) <= abs(g - self.hi):
            out.append(-self.normal.copy())
        return out

    def local_boundary_points(self, a, scale):
        return HalfSpace(self.normal, float(a @ self.normal), label=self.label).local_boundary_points(a, scale)

    def interior_offset(self, a, step):
        if self.hi == self.lo:
            return None
        g = float(a @ self.normal)
        mid = 0.5 * (self.lo + self.hi)
        sign = 1.0 if mid > g else -1.0
        return a + sign * min(0.5 * step, 0.25 * (self.hi - self.lo)) * self.normal

    def regularized(self, box=None, tol=0.0):
        return self if self.hi > self.lo else None


# Directions on the unit normal circle of a line in space.
LINE_NORMAL_SAMPLES = 80


@dataclass(eq=False)
class AffineSubspace(Primitive):
    """point + span(basis): a line or a plane (a single point is a
    ``FinitePointSet``)."""

    point: np.ndarray
    basis: np.ndarray  # shape (k, n), rows spanning the subspace
    label: str = "affine"
    convex: bool = True

    def __post_init__(self):
        self.point = as_vec(self.point)
        self.dim = self.point.shape[0]
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.dim:
            raise SetError(f"affine basis must be (k, {self.dim}), got {B.shape}")
        rank = np.linalg.matrix_rank(B, tol=1e-12)
        if rank == 0:
            raise SetError("affine subspace needs a nonzero direction (a point is point(...))")
        if rank < B.shape[0]:
            raise SetError(f"dependent affine basis rows: {rank} of {B.shape[0]} independent")
        self.basis = np.linalg.qr(B.T)[0].T  # orthonormal rows
        if self.basis.shape[0] >= self.dim:
            raise SetError("affine subspace must have dimension < ambient dimension")

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[0]

    def _residual(self, P):
        """P minus its projection, row by row: coefficients by ``np.vecdot``
        and a stacked product, so that each row gets the bits a one-row call
        gives (a batched ``W @ basis.T`` differs from it in the last bit)."""
        W = P - self.point
        if self.subspace_dim == 1:
            row = self.basis[0]
            W = W - np.vecdot(W, row)[:, None] * row
        else:
            coef = np.vecdot(W[:, None, :], self.basis)
            W = W - np.matmul(coef[:, None, :], self.basis)[:, 0]
        return W

    def contains_many(self, P, tol, per_row=False):
        return np.linalg.norm(self._residual(P), axis=1) <= tol

    def interior_many(self, P, tol):
        return np.zeros(P.shape[0], dtype=bool)

    def distance_many(self, P, tol=0.0):
        return np.linalg.norm(self._residual(P), axis=1)

    def boundary_distance_many(self, P):
        return self.distance_many(P)

    def project_many(self, X):
        return X - self._residual(X)

    def ray_intervals(self, x, d, snap):
        # Minimum residual in vector form: the squared-quadratic route
        # cancels catastrophically near zero, this one does not.
        w0 = self._residual(x[None, :])[0]
        w1 = self._residual((x + d)[None, :])[0] - w0
        n1sq = float(w1 @ w1)
        if n1sq <= snap * snap:
            return IntervalSet.whole(0.0) if norm(w0) <= snap else IntervalSet.empty()
        t_star = -float(w0 @ w1) / n1sq
        closest = w0 + t_star * w1
        if norm(closest) <= snap and t_star >= 0.0:
            return IntervalSet([(t_star, t_star)])
        return IntervalSet.empty()

    def boundary_points(self, count, rng, box):
        span = norm(box[1] - box[0])
        # A stacked product gives each row the bits of the one-row
        # ``c @ basis``; ``C @ basis`` (gemm) differs on a plane off the axes.
        return _draw_inside(
            count, rng, box, -span, span, self.subspace_dim,
            lambda C: self.point + np.matmul(C[:, None, :], self.basis)[:, 0], self.point,
        )

    def local_boundary_points(self, a, scale):
        return np.asarray([q for row in self.basis for q in (a + scale * row, a - scale * row)])

    def normal_directions(self, a):
        nrm = np.eye(self.dim) - self.basis.T @ self.basis
        u = next(nrm[:, c] / norm(nrm[:, c]) for c in range(self.dim) if norm(nrm[:, c]) > 1e-9)
        if self.dim - self.subspace_dim == 1:
            # A hyperplane inside the ambient space: two opposite normals.
            return [u, -u]
        # A line in space: its unit normal circle, sampled at about the
        # neighbour spacing (0.08 rad) of the 2000-direction 3D grid.  Few
        # grid directions lie within the margin noise of the circle.
        v = np.cross(self.basis[0], u)
        t = 2.0 * math.pi * np.arange(LINE_NORMAL_SAMPLES) / LINE_NORMAL_SAMPLES
        return list(np.outer(np.cos(t), u) + np.outer(np.sin(t), v))


@dataclass(eq=False)
class FinitePointSet(Primitive):
    points: np.ndarray
    label: str = "points"

    def __post_init__(self):
        P = np.asarray(self.points, dtype=float)
        if P.ndim == 1:
            P = P[None, :]
        if P.ndim != 2 or P.shape[1] not in (2, 3) or P.shape[0] == 0:
            raise SetError(f"finite point set needs shape (m, 2|3), got {P.shape}")
        self.points = P
        self.dim = P.shape[1]
        self.convex = P.shape[0] == 1

    def _dists(self, P):
        return np.linalg.norm(P[:, None, :] - self.points[None, :, :], axis=2)

    def contains_many(self, P, tol, per_row=False):
        return self._dists(P).min(axis=1) <= tol

    def interior_many(self, P, tol):
        return np.zeros(P.shape[0], dtype=bool)

    def distance_many(self, P, tol=0.0):
        return self._dists(P).min(axis=1)

    def boundary_distance_many(self, P):
        return self.distance_many(P)

    def labeled_candidates(self, X, tol, cluster_tol):
        # One column per point, offered to the rows it is nearest to.
        d = self._dists(X)
        best = d.min(axis=1, keepdims=True)
        offered = d <= best + 1e-12 * (1.0 + best)
        exact = np.ones(X.shape[0], dtype=bool)
        return [
            (np.broadcast_to(p, X.shape), (self.label,), exact, offered[:, k])
            for k, p in enumerate(self.points)
        ]

    def ray_intervals(self, x, d, snap):
        spans = []
        for p in self.points:
            t = float((p - x) @ d)
            if t >= 0.0 and norm(x + t * d - p) <= snap:
                spans.append((t, t))
        return IntervalSet.merged(spans)

    def boundary_points(self, count, rng, box):
        reps = int(math.ceil(count / self.points.shape[0]))
        return np.tile(self.points, (reps, 1))[:count]

    def finite_extent(self):
        return (self.points.min(axis=0), self.points.max(axis=0))


# ---------------------------------------------------------------------------
# CSG nodes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Union:
    """Union of nodes; answers the same queries as a leaf."""

    children: list

    def __post_init__(self):
        if not self.children:
            raise SetError("union needs at least one child")

    @property
    def leaves(self) -> list:
        return [leaf for child in self.children for leaf in child.leaves]

    @property
    def convex(self) -> bool:
        return len(self.children) == 1 and self.children[0].convex

    def contains_many(self, P, tol, per_row=False):
        out = np.zeros(P.shape[0], dtype=bool)
        for child in self.children:
            out |= child.contains_many(P, tol, per_row)
        return out

    def interior_many(self, P, tol):
        # Union interiors are the union of child interiors; exact whenever
        # distinct components do not touch (enforced by scene validation).
        out = np.zeros(P.shape[0], dtype=bool)
        for child in self.children:
            out |= child.interior_many(P, tol)
        return out

    def distance_many(self, P, tol):
        vals = [child.distance_many(P, tol) for child in self.children]
        return np.min(np.stack(vals, axis=0), axis=0)

    def labeled_candidates(self, X, tol, cluster_tol):
        return [
            col for child in self.children for col in child.labeled_candidates(X, tol, cluster_tol)
        ]

    def ray_intervals(self, x, d, snap):
        out = IntervalSet.empty()
        for child in self.children:
            out = out.union(child.ray_intervals(x, d, snap), gap_tol=snap)
        return out

    def regularized(self, box, tol):
        kept = [child.regularized(box, tol) for child in self.children]
        kept = [k for k in kept if k is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else Union(kept)


# Candidates (rows x active subsets) worked on at once by an intersection.
_CANDIDATE_BUDGET = 1 << 16


def _sq_rows(W) -> np.ndarray:
    """Squared norms along the last axis, summed per coordinate, so that a
    row's value does not depend on the other rows of the batch."""
    out = W[..., 0] * W[..., 0]
    for k in range(1, W.shape[-1]):
        out = out + W[..., k] * W[..., k]
    return out


@dataclass
class _ActiveSets:
    """Projection tables of an intersection, one row k per active subset.

    The projection onto the subset's flat L is ``A[k] x + q[k]``.  Subsets
    with a sphere also hold the centre ``center[k]`` and radius
    ``radius[k]`` of that sphere's section by L (``sphere[k]`` is True).
    """

    A: np.ndarray  # (K, d, d)
    q: np.ndarray  # (K, d)
    sphere: np.ndarray  # (K,) bool
    center: np.ndarray  # (K, d)
    radius: np.ndarray  # (K,)

    def candidates(self, X) -> np.ndarray:
        """(m, K, d) candidates of the rows X: the projection onto each flat,
        moved onto the section sphere where the subset has one.

        Written per coordinate, so a row's candidates do not depend on the
        other rows of the batch.
        """
        Y = np.broadcast_to(self.q, (X.shape[0],) + self.q.shape).copy()
        for j in range(X.shape[1]):
            Y += X[:, None, None, j] * self.A[None, :, :, j]
        s = self.sphere
        if s.any():
            # The nearest section point; at the section centre every point
            # ties, which a unique projection rules out, so the centre itself
            # (feasible or not, never nearer than the set) stands in.
            W = Y[:, s] - self.center[s]
            wn = np.sqrt(_sq_rows(W))
            scale = np.where(wn > 0.0, self.radius[s] / np.where(wn > 0.0, wn, 1.0), 0.0)
            Y[:, s] = self.center[s] + scale[..., None] * W
        return Y


def _active_sets(children) -> _ActiveSets:
    """Projection tables for an intersection of convex leaves.

    Pieces: a half-space is a plane, a slab two planes, a ball a sphere; an
    affine subspace or a single point is an equality flat E, always active.
    For every subset S of at most dim(E) pieces, the flat L is E cut by the
    planes of S and by the radical planes of the spheres of S against the
    first one.  Subsets whose constraint rows are dependent are skipped.
    By conic Caratheodory on the KKT multipliers, the closest point of the
    intersection is the projection onto L of some subset without a sphere,
    or the point of the sphere's section by L nearest to that projection.
    The farthest section point is never needed: the closest point is also
    the closest point of the convex set cut out by S alone, which holds the
    whole section.
    """
    dim = children[0].dim
    eq_rows, eq_rhs, planes, spheres = [], [], [], []
    for child in children:
        if isinstance(child, HalfSpace):
            planes.append((child.normal, child.offset))
        elif isinstance(child, Slab):
            planes += [(child.normal, child.hi), (-child.normal, -child.lo)]
        elif isinstance(child, ClosedBall):
            spheres.append((child.center, child.radius))
        elif isinstance(child, AffineSubspace):
            normals = np.linalg.svd(np.eye(dim) - child.basis.T @ child.basis)[0]
            normals = normals[:, : dim - child.subspace_dim].T
            eq_rows += list(normals)
            eq_rhs += list(normals @ child.point)
        elif isinstance(child, FinitePointSet) and child.convex:
            eq_rows += list(np.eye(dim))
            eq_rhs += list(child.points[0])
        else:
            raise SetError(f"intersection child {child.label!r} is not a convex leaf")
    # E as independent orthonormal rows; inconsistent flats give the
    # least-squares flat, whose candidates then fail membership.
    if eq_rows:
        G, h = np.asarray(eq_rows), np.asarray(eq_rhs)
        rank = int(np.linalg.matrix_rank(G))
        E = np.linalg.svd(G)[2][:rank]
        e_rhs = E @ np.linalg.lstsq(G, h, rcond=None)[0]
    else:
        E, e_rhs = np.zeros((0, dim)), np.zeros(0)
    pieces = [(False, n, b) for n, b in planes] + [(True, c, r) for c, r in spheres]
    tables = []
    for size in range(dim - E.shape[0] + 1):
        for subset in itertools.combinations(pieces, size):
            rows, rhs = list(E), list(e_rhs)
            balls = [(c, r) for is_ball, c, r in subset if is_ball]
            for is_ball, n, b in subset:
                if not is_ball:
                    rows.append(n)
                    rhs.append(b)
            for c, r in balls[1:]:
                c1, r1 = balls[0]
                rows.append(2.0 * (c - c1))
                rhs.append(float(c @ c - c1 @ c1) - r * r + r1 * r1)
            M = np.asarray(rows).reshape(-1, dim)
            if np.linalg.matrix_rank(M) < M.shape[0]:
                continue
            pinv = np.linalg.pinv(M)
            A = np.eye(dim) - pinv @ M
            q = pinv @ np.asarray(rhs, dtype=float)
            center, radius = np.zeros(dim), 0.0
            if balls:
                c1, r1 = balls[0]
                center = A @ c1 + q
                r_sq = r1 * r1 - float((c1 - center) @ (c1 - center))
                if r_sq < 0.0:
                    continue
                radius = math.sqrt(r_sq)
            tables.append((A, q, bool(balls), center, radius))
    A, q, sphere, center, radius = zip(*tables)
    return _ActiveSets(np.asarray(A), np.asarray(q), np.asarray(sphere),
                       np.asarray(center), np.asarray(radius))


@dataclass(eq=False)
class Intersection:
    """Intersection of convex leaves; answers the same queries as a leaf."""

    children: list

    def __post_init__(self):
        if len(self.children) < 2:
            raise SetError("intersection needs at least two children")

    @property
    def leaves(self) -> list:
        return [leaf for child in self.children for leaf in child.leaves]

    @property
    def convex(self) -> bool:
        return all(child.convex for child in self.children)

    def contains_many(self, P, tol, per_row=False):
        out = np.ones(P.shape[0], dtype=bool)
        for child in self.children:
            out &= child.contains_many(P, tol, per_row)
        return out

    def interior_many(self, P, tol):
        out = np.ones(P.shape[0], dtype=bool)
        for child in self.children:
            out &= child.interior_many(P, tol)
        return out

    @cached_property
    def _tables(self) -> _ActiveSets:
        return _active_sets(self.children)

    def _project_many(self, P, tol):
        """Closest points, distances and exact flags of the rows of P.

        Rows inside stay where they are.  Every other row takes the nearest
        of its active-set candidates that all children contain within tol.
        Each feasible candidate lies in the set, and the true closest point
        is among the candidates, so the nearest feasible one is it.  A row
        without a feasible candidate takes its least-violating candidate and
        is flagged inexact.
        """
        n, dim = P.shape
        points, dist, exact = P.copy(), np.zeros(n), np.ones(n, dtype=bool)
        outside = np.flatnonzero(~self.contains_many(P, tol))
        table = self._tables
        K = table.q.shape[0]
        step = max(1, _CANDIDATE_BUDGET // K)
        for start in range(0, outside.size, step):
            rows = outside[start : start + step]
            X = P[rows]
            Y = table.candidates(X)
            flat = Y.reshape(-1, dim)
            feasible = self.contains_many(flat, tol).reshape(rows.size, K)
            D = np.sqrt(_sq_rows(Y - X[:, None, :]))
            pick = np.argmin(np.where(feasible, D, INF), axis=1)
            found = feasible.any(axis=1)
            if not found.all():
                violation = np.zeros(flat.shape[0])
                for child in self.children:
                    violation = np.maximum(violation, child.distance_many(flat))
                violation = violation.reshape(rows.size, K)
                pick = np.where(found, pick, np.argmin(violation, axis=1))
            take = np.arange(rows.size)
            points[rows] = Y[take, pick]
            dist[rows] = D[take, pick]
            exact[rows] = found
        return points, dist, exact

    def distance_many(self, P, tol):
        return self._project_many(P, tol)[1]

    def labeled_candidates(self, X, tol, cluster_tol):
        points, _, exact = self._project_many(X, tol)
        everyone = tuple(child.label for child in self.children)
        labels = boundary_labels_many(self.children, points, cluster_tol)
        return [(points, [lab or everyone for lab in labels], exact, None)]

    def ray_intervals(self, x, d, snap):
        out = IntervalSet.whole(0.0)
        for child in self.children:
            out = out.intersect(child.ray_intervals(x, d, snap))
        return out

    def regularized(self, box, tol):
        # Convex leaves: a nonempty interior makes the intersection regular
        # closed.  The interior is probed on a coarse grid plus seeded draws.
        lo, hi = box
        dim = lo.shape[0]
        rng = np.random.default_rng(12345)
        coarse = [np.linspace(lo[k], hi[k], 9) for k in range(dim)]
        mesh = np.meshgrid(*coarse, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = np.concatenate([pts, rng.uniform(lo, hi, size=(512, dim))], axis=0)
        return self if bool(np.any(self.interior_many(pts, tol))) else None


# ---------------------------------------------------------------------------
# Projection results
# ---------------------------------------------------------------------------


@dataclass
class ProjectionResult:
    """Closest points in the set, one representative per cluster."""

    points: list[np.ndarray]
    labels: list[tuple[str, ...]]
    distance: float
    exactness: str = "exact"  # or "approximate"

    @property
    def multiplicity(self) -> int:
        return len(self.points)


def _clustered(cands, dist: float, tol: float) -> ProjectionResult:
    """The cluster rule of ``ClosedSetDesc.project_many`` on one row's near
    candidates (point, labels, exact)."""
    clusters: list[list] = []
    for p, lab, ex in sorted(cands, key=lambda t: tuple(t[0])):
        for cluster in clusters:
            if norm(cluster[0][0] - p) <= tol:
                cluster.append((p, lab, ex))
                break
        else:
            clusters.append([(p, lab, ex)])
    points, labels, exact = [], [], True
    for cluster in clusters:
        points.append(cluster[0][0])
        lab: tuple[str, ...] = ()
        for _, l, ex in cluster:
            lab = tuple(sorted(set(lab) | set(l)))
            exact &= ex
        labels.append(lab)
    return ProjectionResult(points, labels, dist, "exact" if exact else "approximate")


# ---------------------------------------------------------------------------
# Grid / point-cloud brute-force oracle
# ---------------------------------------------------------------------------


class GridOracle:
    """Independent brute-force oracle for a set description.

    Holds a membership-classified grid cloud for full-dimensional leaves plus
    dense parametric clouds for thin leaves (affine subspaces, point sets),
    so the distance it reports never depends on the analytic projection
    formulas being tested.  It keeps no reference to the description, which
    caches it: without that cycle, a dropped description frees its grids at
    once instead of at the next garbage collection.
    """

    def __init__(self, desc: "ClosedSetDesc"):
        lo, hi = desc.box
        dim = desc.dim
        self.h = desc.diameter / (512.0 if dim == 2 else 128.0)
        axes = [np.arange(lo[k], hi[k] + 0.5 * self.h, self.h) for k in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=-1)
        mask = desc.contains_many(grid)
        self.grid_points = grid
        self.membership = mask
        clouds = [grid[mask]]
        for leaf in desc.leaves:
            extra = self._thin_cloud(leaf, lo, hi)
            if extra is not None and len(extra):
                keep = desc.contains_many(extra)
                clouds.append(extra[keep])
        self.cloud = np.concatenate(clouds, axis=0)
        self.complement_cloud = grid[~mask]
        if self.cloud.shape[0] == 0:
            raise SetError("set is empty on the oracle grid (empty scenes are invalid)")

    def _thin_cloud(self, leaf, lo, hi):
        if isinstance(leaf, FinitePointSet):
            return leaf.points.copy()
        if isinstance(leaf, AffineSubspace):
            span = norm(hi - lo)
            steps = np.arange(-span, span + 0.5 * self.h, self.h)
            if leaf.subspace_dim == 1:
                pts = leaf.point[None, :] + steps[:, None] * leaf.basis[0][None, :]
            else:
                u, v = np.meshgrid(steps, steps, indexing="ij")
                pts = (
                    leaf.point[None, :]
                    + u.ravel()[:, None] * leaf.basis[0][None, :]
                    + v.ravel()[:, None] * leaf.basis[1][None, :]
                )
            inside = np.all(pts >= lo - 1e-12, axis=1) & np.all(pts <= hi + 1e-12, axis=1)
            return pts[inside]
        return None

    def _min_distance(self, cloud, x) -> float:
        x = np.asarray(x, dtype=float)
        best = INF
        for start in range(0, cloud.shape[0], 65536):
            chunk = cloud[start : start + 65536]
            d = float(np.min(np.linalg.norm(chunk - x, axis=1)))
            best = min(best, d)
        return best

    def distance(self, x) -> float:
        return self._min_distance(self.cloud, x)

    def distance_many(self, P) -> np.ndarray:
        """Brute-force distances for a batch of query points."""
        P = np.asarray(P, dtype=float)
        best = np.full(P.shape[0], INF)
        for start in range(0, self.cloud.shape[0], 16384):
            chunk = self.cloud[start : start + 16384]
            d = np.sqrt(
                np.maximum(
                    0.0,
                    np.sum(P * P, axis=1)[:, None]
                    - 2.0 * P @ chunk.T
                    + np.sum(chunk * chunk, axis=1)[None, :],
                )
            )
            best = np.minimum(best, d.min(axis=1))
        return best

    def complement_distance(self, x) -> float:
        if self.complement_cloud.shape[0] == 0:
            return INF
        return self._min_distance(self.complement_cloud, x)

    def probe_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.cloud.shape[0], size=min(count, self.cloud.shape[0]), replace=False)
        return self.cloud[idx]


# ---------------------------------------------------------------------------
# The top-level description
# ---------------------------------------------------------------------------

_DEFAULT_BOX_HALF = 8.0


class ClosedSetDesc:
    """Immutable closed-set description: CSG root, labels, bounding box,
    derived tolerances, and lazily built caches (oracle, regularization)."""

    def __init__(self, root, box=None, name: str = "set"):
        self.root = root
        self.name = name
        self.leaves = root.leaves
        dims = {leaf.dim for leaf in self.leaves}
        if len(dims) != 1:
            raise SetError(f"mixed leaf dimensions {sorted(dims)}")
        self.dim = dims.pop()
        labels = [leaf.label for leaf in self.leaves]
        if len(set(labels)) != len(labels):
            raise SetError(f"leaf labels must be distinct, got {labels}")
        self._validate_structure(self.root)
        self.box = self._resolve_box(box)
        self.diameter = norm(self.box[1] - self.box[0])
        # Membership snap keeps numerically-on-boundary points inside closed sets.
        self.membership_tol = 1e-12 * max(1.0, self.diameter)
        # Tolerance for tangent-sphere emptiness decisions.
        self.realize_tol = 1e-12 * max(1.0, self.diameter)
        # Marginal band for emptiness decisions (reported, never decisive).
        self.ball_tol = 1e-7 * self.diameter
        self.cluster_tol = 1e-6 * self.diameter
        # Float noise of realization margins near the tangent-sphere threshold.
        self.margin_noise = 5e-14 * max(1.0, self.diameter)
        self._oracle: GridOracle | None = None
        self._regularized = "unset"

    # -- structure ---------------------------------------------------------

    def _validate_structure(self, node, depth: int = 0):
        if isinstance(node, Union):
            for child in node.children:
                self._validate_structure(child, depth + 1)
        elif isinstance(node, Intersection):
            for child in node.children:
                if not isinstance(child, Primitive):
                    raise SetError("intersections may contain primitive leaves only")
                if not child.convex:
                    raise SetError(
                        f"intersection child {child.label!r} is not convex; "
                        "general intersections are unsupported"
                    )
        elif not isinstance(node, Primitive):
            raise SetError(f"unknown CSG node {type(node).__name__}")

    def _resolve_box(self, box):
        if box is not None:
            lo = as_vec(box[0], dim=self.dim)
            hi = as_vec(box[1], dim=self.dim)
            if not np.all(hi > lo):
                raise SetError("bounding box must have positive extent")
            return (lo, hi)
        los, his = [], []
        for leaf in self.leaves:
            ext = leaf.finite_extent()
            if ext is not None:
                los.append(ext[0])
                his.append(ext[1])
        if los:
            lo = np.min(np.asarray(los), axis=0)
            hi = np.max(np.asarray(his), axis=0)
            pad = max(1.0, 0.5 * float(np.max(hi - lo)))
            return (lo - pad, hi + pad)
        half = np.full(self.dim, _DEFAULT_BOX_HALF)
        return (-half, half)

    # -- caches -------------------------------------------------------------

    @property
    def oracle(self) -> GridOracle:
        if self._oracle is None:
            self._oracle = GridOracle(self)
        return self._oracle

    # -- membership ----------------------------------------------------------

    def contains_many(self, P, per_row: bool = False) -> np.ndarray:
        """Membership of each row of P.  Half-space and slab membership
        takes BLAS gemv, which rounds a lone row differently from a batch
        of two rows or more (every batch of two or more gives a row the same
        bits); ``per_row`` takes ``np.vecdot`` instead, which gives every
        row the bits of its one-row call at any row count, at a few times
        the cost per row."""
        return self.root.contains_many(_as_points(P, self.dim), self.membership_tol, per_row)

    def contains(self, x) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :])[0])

    def interior_many(self, P) -> np.ndarray:
        return self.root.interior_many(_as_points(P, self.dim), self.membership_tol)

    def interior_contains(self, x) -> bool:
        return bool(self.interior_many(np.asarray(x, dtype=float)[None, :])[0])

    # -- distance and projection ---------------------------------------------

    def distance_many(self, P) -> np.ndarray:
        P = _as_points(P, self.dim)
        return self.root.distance_many(P, self.membership_tol)

    def distance(self, x) -> float:
        return float(self.distance_many(np.asarray(x, dtype=float)[None, :])[0])

    def project(self, x) -> ProjectionResult:
        return self.project_many(as_vec(x, dim=self.dim)[None, :])[0]

    def project_many(self, P) -> list[ProjectionResult]:
        """The projection of each row of P.

        A row in the set is its own projection.  For any other row, the
        candidates of the CSG tree within ``cluster_tol`` of the nearest one
        are taken in lexicographic order; each joins the first cluster whose
        first point lies within ``cluster_tol`` of it, or opens a new one.  A
        cluster is represented by its first point and carries the union of
        its candidates' labels.  Distances are per row (``np.vecdot``), so a
        row's result does not depend on the other rows of P.
        """
        P = _as_points(P, self.dim)
        out: list = [None] * P.shape[0]
        inside = self.contains_many(P)
        rows = np.flatnonzero(inside)
        if rows.size:
            labels = boundary_labels_many(self.leaves, P[rows], self.cluster_tol)
            for i, lab in zip(rows, labels):
                out[i] = ProjectionResult([P[i].copy()], [lab], 0.0, "exact")
        rows = np.flatnonzero(~inside)
        if rows.size == 0:
            return out
        X = P[rows]
        tol = self.cluster_tol
        columns = self.root.labeled_candidates(X, self.membership_tol, tol)
        Y = np.stack([points for points, _, _, _ in columns], axis=1)
        W = X[:, None, :] - Y
        D = np.sqrt(np.vecdot(W, W))
        for c, (_, _, _, offered) in enumerate(columns):
            if offered is not None:
                D[~offered, c] = INF
        dist = D.min(axis=1)
        near = (D <= (dist + tol)[:, None]).tolist()
        for r, (i, d) in enumerate(zip(rows, dist.tolist())):
            cands = [
                (Y[r, c], lab if isinstance(lab, tuple) else lab[r], exact[r])
                for c, (_, lab, exact, _) in enumerate(columns) if near[r][c]
            ]
            out[i] = _clustered(cands, d, tol)
        return out

    # -- boundary ------------------------------------------------------------

    def boundary_labels_at(self, p, tol: float | None = None) -> tuple[str, ...]:
        """Labels of leaves whose boundary passes within tol of p."""
        tol = self.cluster_tol if tol is None else tol
        return boundary_labels_many(self.leaves, np.asarray(p, dtype=float)[None, :], tol)[0]

    def on_boundary(self, p) -> bool:
        return self.contains(p) and not self.interior_contains(p)

    def closure_of_interior(self) -> "ClosedSetDesc | None":
        """CSG regularization cl(int A), or None when the interior is empty."""
        if self._regularized == "unset":
            self._regularized = self._build_regularized()
        return self._regularized

    def _build_regularized(self):
        reg_root = self.root.regularized(self.box, self.membership_tol)
        if reg_root is None:
            return None
        return ClosedSetDesc(reg_root, box=self.box, name=f"cl-int-{self.name}")

    def boundary_of_interior_many(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """Two masks over the rows of Q: on the set boundary, and in the CSG
        regularization cl(int A) (which, for a boundary row, is being on the
        boundary of the interior)."""
        Q = _as_points(Q, self.dim)
        on = self.contains_many(Q) & ~self.interior_many(Q)
        reg = self.closure_of_interior()
        inner = np.zeros(Q.shape[0], dtype=bool) if reg is None else reg.contains_many(Q)
        return on, inner

    def in_boundary_of_interior(
        self,
        a,
        method: str = "analytic",
        samples_per_eps: int = 1000,
        seed: int = 0,
    ) -> bool:
        """Whether every ball around a meets the interior of the set.

        The analytic route tests membership in the CSG regularization
        cl(int A); the sampling route draws points inside balls of radius
        diameter * 2**-k, k = 3..12, and checks interior membership directly.
        """
        a = as_vec(a, dim=self.dim)
        on, inner = self.boundary_of_interior_many(a[None, :])
        if not on[0]:
            raise GeometryError(f"point {a.tolist()} is not on the set boundary")
        if method == "analytic":
            return bool(inner[0])
        if method != "sampling":
            raise GeometryError(f"unknown method {method!r}")
        rng = np.random.default_rng(seed)
        for eps in (self.diameter * (2.0 ** -k) for k in range(3, 13)):
            raw = rng.normal(size=(samples_per_eps, self.dim))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            radii = eps * rng.random(samples_per_eps) ** (1.0 / self.dim)
            pts = a + dirs * radii[:, None]
            if not bool(np.any(self.interior_many(pts))):
                return False
        return True

    # -- ray intervals ---------------------------------------------------------

    def ray_membership_intervals(self, x, direction) -> IntervalSet:
        """Parameters t >= 0 with x + t*direction inside the set."""
        x = as_vec(x, dim=self.dim)
        d = normalized(direction)
        snap = max(1e-12, self.membership_tol)
        return self.root.ray_intervals(x, d, snap)

    # -- boundary sampling ------------------------------------------------------

    def sample_boundary(self, count: int, seed: int = 0) -> list[tuple[np.ndarray, str]]:
        """Deterministic-under-seed distinct boundary points with originating
        labels, at most ``count`` of them.

        Every returned point is in the set but not in its interior; points of
        one leaf swallowed by another component's interior are rejected, and
        so are points whose coordinates equal an earlier one (a finite point
        set offers each of its points once).
        """
        if count < 1:
            raise GeometryError("count must be >= 1")
        rng = np.random.default_rng(seed)
        quota = max(1, count // len(self.leaves))
        out: list[tuple[np.ndarray, str]] = []
        seen: set[tuple] = set()
        for leaf in self.leaves:
            want = quota if leaf is not self.leaves[-1] else count - len(out)
            got: list[np.ndarray] = []
            tries = 0
            while len(got) < want and tries < 60:
                tries += 1
                batch = leaf.boundary_points(max(want, 8), rng, self.box)
                keep = self.contains_many(batch) & ~self.interior_many(batch)
                for p in batch[keep]:
                    if tuple(p) in seen:
                        continue
                    seen.add(tuple(p))
                    got.append(p)
                    if len(got) >= want:
                        break
            out.extend((p, leaf.label) for p in got[:want])
        return out[:count]

    def sample_exterior(self, count: int, seed: int = 0) -> np.ndarray:
        """Random points of the complement inside the bounding box."""
        rng = np.random.default_rng(seed)
        lo, hi = self.box
        out: list[np.ndarray] = []
        tries = 0
        while len(out) < count and tries < 400:
            tries += 1
            batch = rng.uniform(lo, hi, size=(max(count, 64), self.dim))
            keep = ~self.contains_many(batch)
            for p in batch[keep]:
                out.append(p)
                if len(out) >= count:
                    break
        if len(out) < count:
            raise SetError("could not sample complement points; set nearly fills the box")
        return np.asarray(out)

    # -- misc ------------------------------------------------------------------

    def is_convex(self) -> bool:
        return self.root.convex

    def validate(self):
        """Scene-load validation: nonemptiness and no touching labeled components."""
        _ = self.oracle  # raises if the grid finds nothing
        if isinstance(self.root, Union) and len(self.root.children) > 1:
            self._check_touching()
        return self

    def _check_touching(self):
        rng = np.random.default_rng(0)
        tol = 10.0 * self.cluster_tol
        kids = self.root.children
        subs = [ClosedSetDesc(child, box=self.box, name="component") for child in kids]
        samples = [sub.sample_boundary(64, seed=int(rng.integers(2**31))) for sub in subs]
        for i in range(len(kids)):
            P = np.reshape([p for p, _ in samples[i]], (-1, self.dim))
            for j, sub_j in enumerate(subs):
                if i == j:
                    continue
                touching = (sub_j.distance_many(P) <= tol) & ~sub_j.interior_many(P)
                if touching.any():
                    raise SetError(
                        "touching labeled components detected near "
                        f"{P[np.argmax(touching)].tolist()} (labels {kids[i].leaves[0].label!r}/"
                        f"{kids[j].leaves[0].label!r}); such scenes are rejected"
                    )


def _owners(leaves, P, tol) -> list[np.ndarray]:
    """One (m,) mask per leaf: the leaf contains the row and its boundary
    passes within tol of it."""
    return [leaf.contains_many(P, tol) & (leaf.boundary_distance_many(P) <= tol) for leaf in leaves]


def owning_leaves(leaves, p, tol) -> list:
    """The leaves, in order, that contain p and whose boundary passes within
    tol of it."""
    owns = _owners(leaves, np.asarray(p, dtype=float)[None, :], tol)
    return [leaf for leaf, owner in zip(leaves, owns) if owner[0]]


def boundary_labels_many(leaves, P, tol) -> list[tuple[str, ...]]:
    """Sorted labels of the owning leaves of each row of P."""
    owns = np.stack(_owners(leaves, P, tol), axis=1).tolist()
    return [tuple(sorted(leaf.label for leaf, owner in zip(leaves, row) if owner)) for row in owns]
