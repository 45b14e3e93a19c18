"""Shared low-level geometry: vectors, nonnegative extended reals, balls,
ray interval sets, and the line-sphere quadratic used by the witness
constructions.

Points and directions are plain float64 numpy arrays of length 2 or 3; the
dimension is fixed per scene.  Extended reals are ordinary floats where
``math.inf`` stands for the unbounded value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

SUPPORTED_DIMS = (2, 3)

# A quadratic discriminant at or below this counts as "no crossing": a
# tangent line yields no open interval strictly inside the sphere.
DISCRIMINANT_FLOOR = 1e-12

UNIT_TOL = 1e-9
UNIT_RENORM_TOL = 1e-6


class GeometryError(ValueError):
    """Bad geometric input: wrong dimension, non-unit direction, and so on."""


class ConstructionError(RuntimeError):
    """A witness construction step could not be completed."""


def as_vec(coords, dim: int | None = None) -> np.ndarray:
    """Validate and convert a coordinate sequence to a float64 vector."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"expected a flat coordinate list, got shape {v.shape}")
    if v.shape[0] not in SUPPORTED_DIMS:
        raise GeometryError(f"dimension {v.shape[0]} unsupported (need 2 or 3)")
    if dim is not None and v.shape[0] != dim:
        raise GeometryError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("coordinates must be finite")
    return v


def norm(v) -> float:
    return float(np.linalg.norm(v))


def as_tuple(v) -> tuple:
    """Plain-float tuple of a vector, for report records."""
    return tuple(float(c) for c in np.asarray(v, dtype=float))


def normalized(v) -> np.ndarray:
    """Scale an arbitrary nonzero vector to unit length."""
    v = np.asarray(v, dtype=float)
    length = float(np.linalg.norm(v))
    if length == 0.0 or not math.isfinite(length):
        raise GeometryError("cannot normalize a zero or non-finite vector")
    return v / length


def unit(v) -> np.ndarray:
    """Ingest a direction that is supposed to be unit already.

    Lengths within ``UNIT_TOL`` of 1 pass through unchanged, lengths within
    ``UNIT_RENORM_TOL`` are renormalized, anything further off is rejected.
    """
    v = np.asarray(v, dtype=float)
    length = float(np.linalg.norm(v))
    err = abs(length - 1.0)
    if err <= UNIT_TOL:
        return v
    if err <= UNIT_RENORM_TOL:
        return v / length
    raise GeometryError(f"direction has length {length!r}, not a unit vector")


def ensure_ext_real(value: float, what: str = "value") -> float:
    """Validate a nonnegative extended real (finite >= 0, or +inf)."""
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise GeometryError(f"{what} must be a nonnegative extended real, got {value!r}")
    return value


def ext_min(a: float, b: float) -> float:
    """Minimum of two nonnegative extended reals; +inf acts as top element."""
    return min(ensure_ext_real(a, "left operand"), ensure_ext_real(b, "right operand"))


@dataclass(frozen=True, eq=False)
class Ball:
    """A ball with positive finite radius; ``closed`` picks B-bar versus B."""

    center: np.ndarray
    radius: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError(f"ball radius must be positive and finite, got {self.radius!r}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains_point(self, p, tol: float = 0.0) -> bool:
        d = norm(np.asarray(p, dtype=float) - self.center)
        if self.closed:
            return d <= self.radius + tol
        return d < self.radius - tol


def sphere_line_roots(x, xi, center, eps: float) -> tuple[float, float] | None:
    """Roots ``t1 <= t2`` of ``||x + t*xi - center|| = eps``, or None.

    The quadratic is ``t^2 + 2 t <x - center, xi> + (||x - center||^2 - eps^2)``.
    Tangency and near-tangency (reduced discriminant <= 1e-12) return None
    because downstream bisections need the moving point strictly inside the
    sphere on an open parameter interval.
    """
    x = as_vec(x)
    center = as_vec(center, dim=x.shape[0])
    xi = unit(np.asarray(xi, dtype=float))
    if xi.shape != x.shape:
        raise GeometryError("direction dimension mismatch")
    if not (eps > 0.0 and math.isfinite(eps)):
        raise GeometryError(f"sphere radius must be positive and finite, got {eps!r}")
    t1, t2 = sphere_line_roots_many(x[None, :], xi[None, :], center[None, :], np.array([eps]))
    return None if math.isnan(t1[0]) else (float(t1[0]), float(t2[0]))


def sphere_line_roots_many(X, XI, C, eps) -> tuple[np.ndarray, np.ndarray]:
    """``sphere_line_roots`` for each row of X, XI (unit directions) and C
    and each radius of eps, unchecked: the roots t1 and t2 of every row,
    NaN where the line misses the sphere or touches it.  The arithmetic is
    per row, so each row has the bits of its one-row call."""
    W = X - C
    half_b = np.vecdot(W, XI)
    disc = half_b * half_b - (np.vecdot(W, W) - eps * eps)
    root = np.sqrt(np.where(disc > DISCRIMINANT_FLOOR, disc, np.nan))
    return -half_b - root, -half_b + root


def bisect(keep_lo, lo, hi, steps: int | None = None, width=None):
    """Halve the bracket [lo, hi] ``steps`` times, or until it is at most
    ``width`` wide; returns the final (lo, hi).

    ``keep_lo(mid)`` says whether the midpoint replaces lo (else it replaces
    hi).  lo and hi are floats, two points (the segment between them is
    halved; pass ``steps``), or arrays of brackets halved in lockstep, for
    which ``keep_lo`` returns one flag per bracket and ``width`` is one
    width for all brackets or one per bracket: each bracket freezes once its
    own gap is at most its own width, so it ends where its scalar run ends,
    and the others go on.  Brackets of points are (k, d) arrays of ends, one
    segment per row, with one flag per row.  A single flag takes a plain
    branch, because numpy calls on scalars would cost more per step than the
    scalar queries they bisect.
    """
    done = 0
    live = True
    while True:
        if steps is not None:
            if done == steps:
                return lo, hi
        else:
            live = hi - lo > width
            if not (live.any() if isinstance(live, np.ndarray) else live):
                return lo, hi
        mid = 0.5 * (lo + hi)
        keep = keep_lo(mid)
        if isinstance(keep, np.ndarray):
            if keep.ndim < mid.ndim:  # one flag per (k, d) point bracket
                keep = keep[:, None]
            lo, hi = np.where(keep & live, mid, lo), np.where(~keep & live, mid, hi)
        elif keep:
            lo = mid
        else:
            hi = mid
        done += 1


def unit_direction_grid(dim: int, density: int) -> np.ndarray:
    """Deterministic unit-direction sweep: angular grid in 2D (includes the
    coordinate axes when density is a multiple of 4), Fibonacci sphere plus
    the six axis directions in 3D."""
    if density < 1:
        raise GeometryError("density must be >= 1")
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(density) / density
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dim == 3:
        i = np.arange(density, dtype=float) + 0.5
        z = 1.0 - 2.0 * i / density
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = golden * np.arange(density, dtype=float)
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        axes = np.concatenate([np.eye(3), -np.eye(3)], axis=0)
        return np.concatenate([pts, axes], axis=0)
    raise GeometryError(f"dimension {dim} unsupported")


@dataclass
class IntervalSet:
    """Union of disjoint closed intervals of the real line, sorted.

    Endpoints may be ``inf``; degenerate single-point intervals are allowed.
    Used for the trace of a ray through a closed set.
    """

    spans: list[tuple[float, float]] = field(default_factory=list)

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet([])

    @staticmethod
    def whole(lo: float = 0.0) -> "IntervalSet":
        return IntervalSet([(lo, INF)])

    @staticmethod
    def merged(raw: list[tuple[float, float]], gap_tol: float = 0.0) -> "IntervalSet":
        spans = sorted((lo, hi) for lo, hi in raw if hi >= lo)
        out: list[tuple[float, float]] = []
        for lo, hi in spans:
            if out and lo <= out[-1][1] + gap_tol:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return IntervalSet(out)

    def union(self, other: "IntervalSet", gap_tol: float = 0.0) -> "IntervalSet":
        return IntervalSet.merged(self.spans + other.spans, gap_tol)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[float, float]] = []
        i = j = 0
        a, b = self.spans, other.spans
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def contains(self, t: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= t <= hi + tol for lo, hi in self.spans)

    def first_point_at_or_after(self, t0: float) -> float:
        """Smallest member >= t0, or +inf."""
        for lo, hi in self.spans:
            if hi >= t0:
                return max(lo, t0)
        return INF

    def first_entry_after(self, t_floor: float) -> float:
        """Smallest member strictly beyond t_floor, or +inf.

        If an interval straddles t_floor the set is already occupied there
        and t_floor itself is returned.
        """
        for lo, hi in self.spans:
            if hi <= t_floor:
                continue
            if lo > t_floor:
                return lo
            return t_floor
        return INF
