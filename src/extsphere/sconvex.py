"""S-convexity checks and the envelope sets built from realization radii.

A closed set is S-convex when no two normal segments at distinct boundary
points, both contained in S, intersect inside S.  The natural choices of S
here are two envelopes of the set:

* the full envelope: the set, the points with a unique projection strictly
  inside the realization radius of their projection direction, the points
  whose projection margin stays under the boundary radius on a thin
  (interior-free) boundary part, and the points projecting onto a
  boundary-of-interior point where no sampled normal reaches the boundary
  radius;
* the capped envelope: the same with the realization radius capped by the
  boundary radius field.

The harness at the bottom runs the extended-condition check, full-envelope
convexity, and capped-envelope convexity plus the two side conditions
(unique projections on the envelope boundary, openness of the thin-margin
set), and reports whether the three verdicts agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import GeometryError, as_tuple, as_vec, bisect, norm
from .conditions import ConditionReport, check_extended_condition
from .proximal import (
    RadiusField,
    cone_margins,
    default_density,
    default_rho_max,
    first_boundary_return,
    realization_margins,
    sample_unit_normals_many,
)
from .sets import ClosedSetDesc, SetError


# ---------------------------------------------------------------------------
# Envelope membership
# ---------------------------------------------------------------------------


class EnvelopeContext:
    """Shared caches for envelope membership tests over one scene."""

    def __init__(
        self,
        desc: ClosedSetDesc,
        radius_field: RadiusField,
        density: int | None = None,
        rho_max: float | None = None,
    ):
        self.desc = desc
        self.radius_field = radius_field
        self.density = default_density(desc.dim) if density is None else density
        self.rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
        self._realizable_memo: dict[tuple, bool] = {}

    def _key(self, a) -> tuple:
        return tuple(np.round(np.asarray(a, dtype=float), 9))

    def boundary_radius(self, a, labels=None) -> float:
        labels = self.desc.boundary_labels_at(a) if labels is None else labels
        return self.radius_field.value(a, labels)

    def realizable_many(self, A, labels) -> np.ndarray:
        """Whether some sampled unit normal at each row of A (with its labels,
        None to look them up) reaches the boundary radius there.

        Memoised per point rounded to 9 digits: the first row asked for a key
        decides it, and the rows that decide new keys share one cone call and
        one margin call.  Only meaningful for boundary-of-interior points (the
        callers check).
        """
        A = np.asarray(A, dtype=float).reshape(-1, self.desc.dim)
        keys = [self._key(a) for a in A]
        new: dict[tuple, int] = {}
        for k, key in enumerate(keys):
            if key not in self._realizable_memo:
                new.setdefault(key, k)
        if new:
            rows = list(new.values())
            rho_test = [min(self.boundary_radius(A[k], labels[k]), self.rho_max) for k in rows]
            cones = sample_unit_normals_many(
                self.desc, A[rows], density=self.density, rho_max=self.rho_max,
                with_realizations=False,
            )
            margins = cone_margins(self.desc, A[rows], cones, rho_test)
            for key, m in zip(new, margins):
                self._realizable_memo[key] = bool(np.any(m >= -self.desc.realize_tol))
        return np.array([self._realizable_memo[key] for key in keys], dtype=bool)

    def realizable_boundary_point(self, a, labels=None) -> bool:
        """``realizable_many`` of one point."""
        return bool(self.realizable_many(as_vec(a, dim=self.desc.dim)[None, :], [labels])[0])


def is_realizable_boundary_point(ctx: EnvelopeContext, a) -> bool:
    """Whether some sampled unit normal at a boundary-of-interior point
    reaches the boundary radius there (existential over the sampled cone)."""
    a = as_vec(a, dim=ctx.desc.dim)
    if not ctx.desc.in_boundary_of_interior(a):
        raise GeometryError(f"{a.tolist()} is not on the boundary of the interior")
    return ctx.realizable_boundary_point(a)


def _reach_rows(ctx: EnvelopeContext, X, projs, capped: bool) -> np.ndarray:
    """Exterior rows with a unique projection a at distance d > 0 (below the
    boundary radius at a when capped) whose direction from a is realized
    strictly beyond d: one realization-margin call for all of them."""
    rows = [r for r, proj in enumerate(projs) if proj.multiplicity == 1 and proj.distance > 0.0]
    if capped:
        rows = [
            r for r in rows
            if projs[r].distance < ctx.boundary_radius(projs[r].points[0], projs[r].labels[0])
        ]
    out = np.zeros(len(projs), dtype=bool)
    if not rows:
        return out
    A = np.asarray([projs[r].points[0] for r in rows])
    W = X[rows] - A
    Z = W / np.sqrt(np.vecdot(W, W))[:, None]
    d = np.asarray([projs[r].distance for r in rows])
    probe = d * (1.0 + 1e-9) + 1e-15
    out[rows] = realization_margins(ctx.desc, A, Z, probe) >= -ctx.desc.realize_tol
    return out


ZONES = ("reach", "thin", "unrealizable")


def _zones_many(ctx: EnvelopeContext, P, zones, capped: bool = False):
    """Two masks over the rows of P: in the set, and outside it in one of
    the zones of ``ZONES``.

    One membership call, one projection call on the exterior rows and one
    realization-margin call for the reach zone.  The projection points of
    the rows the reach zone did not take are then classified in one call
    (boundary of the interior or not); the thin zone is decided on the
    interior-free points, and the unrealizable zone with one
    ``realizable_many`` call on the boundary-of-interior points of the rows
    still open.  Each zone takes a row when any of its points qualifies.
    """
    desc = ctx.desc
    P = np.asarray(P, dtype=float).reshape(-1, desc.dim)
    inside = desc.contains_many(P)
    hit = np.zeros(P.shape[0], dtype=bool)
    rows = np.flatnonzero(~inside)
    if rows.size == 0:
        return inside, hit
    X = P[rows]
    projs = desc.project_many(X)
    took = _reach_rows(ctx, X, projs, capped) if "reach" in zones else np.zeros(rows.size, bool)
    rest = np.flatnonzero(~took) if "thin" in zones or "unrealizable" in zones else []
    owner = np.asarray([r for r in rest for _ in projs[r].points], dtype=int)
    points = np.reshape([p for r in rest for p in projs[r].points], (-1, desc.dim))
    labels = [lab for r in rest for lab in projs[r].labels]
    on, inner = desc.boundary_of_interior_many(points)
    if not on.all():
        k = int(np.argmin(on))
        raise GeometryError(f"point {points[k].tolist()} is not on the set boundary")

    def by_row(mask):
        return np.bincount(owner[mask], minlength=rows.size) > 0

    if "thin" in zones:
        thin = np.zeros(owner.size, dtype=bool)
        for k in np.flatnonzero(~inner):
            thin[k] = projs[owner[k]].distance < ctx.boundary_radius(points[k], labels[k])
        took |= by_row(thin)
    if "unrealizable" in zones:
        asked = np.flatnonzero(inner & ~took[owner])
        unrealizable = np.zeros(owner.size, dtype=bool)
        unrealizable[asked] = ~ctx.realizable_many(points[asked], [labels[k] for k in asked])
        took |= by_row(unrealizable)
    hit[rows] = took
    return inside, hit


def envelope_many(ctx: EnvelopeContext, P, capped: bool = False) -> np.ndarray:
    """Membership of each row of P in the full envelope (or the capped one,
    see the module doc): the set, then the reach zone, the thin-margin set
    and the unrealizable set, all from one projection per row."""
    inside, hit = _zones_many(ctx, P, ZONES, capped)
    return inside | hit


def near_thin_boundary_many(ctx: EnvelopeContext, P) -> np.ndarray:
    """``near_thin_boundary`` of each row of P."""
    return _zones_many(ctx, P, ("thin",))[1]


def _one_row(ctx: EnvelopeContext, x) -> np.ndarray:
    return as_vec(x, dim=ctx.desc.dim)[None, :]


def near_thin_boundary(ctx: EnvelopeContext, x) -> bool:
    """Exterior points with a projection on an interior-free boundary part
    closer than the boundary radius there (strictly)."""
    return bool(near_thin_boundary_many(ctx, _one_row(ctx, x))[0])


def near_unrealizable_boundary(ctx: EnvelopeContext, x) -> bool:
    """Exterior points with a projection on the boundary of the interior
    where no sampled normal reaches the boundary radius."""
    return bool(_zones_many(ctx, _one_row(ctx, x), ("unrealizable",))[1][0])


def in_unique_reach_zone(ctx: EnvelopeContext, x, capped: bool = False) -> bool:
    """Exterior points with a unique projection strictly inside the
    realization radius along the projection direction (optionally capped by
    the boundary radius field)."""
    return bool(_zones_many(ctx, _one_row(ctx, x), ("reach",), capped)[1][0])


def in_envelope(ctx: EnvelopeContext, x, capped: bool = False) -> bool:
    """``envelope_many`` of one point."""
    return bool(envelope_many(ctx, _one_row(ctx, x), capped)[0])


def in_full_envelope(ctx: EnvelopeContext, x) -> bool:
    return in_envelope(ctx, x)


def in_capped_envelope(ctx: EnvelopeContext, x) -> bool:
    return in_envelope(ctx, x, capped=True)


# ---------------------------------------------------------------------------
# S-convexity
# ---------------------------------------------------------------------------


@dataclass
class SConvexityViolation:
    base_a: tuple
    dir_a: tuple
    t_a: float
    base_b: tuple
    dir_b: tuple
    t_b: float
    point: tuple
    detector: str


@dataclass
class SConvexityReport:
    verdict: str
    violations: list
    segments_tested: int
    pairs_tested: int
    seed: int
    notes: list = field(default_factory=list)


def _segment_cap(desc, a, direction, realization) -> float:
    reach = realization if math.isfinite(realization) else 4.0 * desc.diameter
    first_hit = first_boundary_return(desc, a, direction)
    if not math.isfinite(first_hit):
        first_hit = 4.0 * desc.diameter
    return min(reach, first_hit, 4.0 * desc.diameter)


def _segment_in_s(s_membership, a, endpoint) -> bool:
    """Whether 33 evenly spaced points of the segment [a, endpoint] lie in S,
    asked in one call."""
    t = np.linspace(0.0, 1.0, 33)[:, None]
    return bool(np.all(s_membership(a + t * (endpoint - a))))


def _crossings(desc, a1, d1, T1, bases, dirs, caps):
    """Hit mask, parameters t, s and crossing points of the segment (a1, d1,
    T1) against each row of (bases, dirs, caps): line intersection in 2D,
    closest points within 1e-9 * diameter in 3D."""
    slack = 1e-5 * (1.0 + np.maximum(T1, caps))
    with np.errstate(divide="ignore", invalid="ignore"):
        if desc.dim == 2:
            det = d1[0] * dirs[:, 1] - d1[1] * dirs[:, 0]
            w = bases - a1
            t = (w[:, 0] * dirs[:, 1] - w[:, 1] * dirs[:, 0]) / det
            s = (w[:, 0] * d1[1] - w[:, 1] * d1[0]) / det
            points = a1 + t[:, None] * d1
            hit = np.abs(det) >= 1e-14
        else:
            w = a1 - bases
            b = dirs @ d1
            denom = 1.0 - b * b
            e = w @ d1
            f = np.sum(w * dirs, axis=1)
            t = np.minimum(np.maximum((b * f - e) / denom, 0.0), T1)
            s = np.minimum(np.maximum((f - b * e) / denom, 0.0), caps)
            p1 = a1 + t[:, None] * d1
            p2 = bases + s[:, None] * dirs
            points = 0.5 * (p1 + p2)
            gap = np.linalg.norm(p1 - p2, axis=1)
            hit = (np.abs(denom) >= 1e-14) & (gap < 1e-9 * desc.diameter)
    hit &= (-slack <= t) & (t <= T1 + slack) & (-slack <= s) & (s <= caps + slack)
    return hit, t, s, points


# Boundary points in one S-convexity sample.
SEGMENT_SAMPLES = 60
# Pairs of normal segments with distinct bases tested before the pair loop
# gives up.
MAX_PAIRS = 20000


def normal_segments(desc, boundary_samples, density, seed, rho_max):
    """The S-convexity sample, which does not depend on S: at most
    ``SEGMENT_SAMPLES`` boundary points and their normal segments.

    Each sampled unit normal becomes a segment extended to
    ``_segment_cap``; caps at or below the membership tolerance are skipped.
    Returns the boundary samples and the segments as arrays (bases (n, d),
    directions (n, d), caps (n,)).
    """
    density = default_density(desc.dim) if density is None else density
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    samples = desc.sample_boundary(min(boundary_samples, SEGMENT_SAMPLES), seed=seed)
    A = np.reshape([a for a, _ in samples], (-1, desc.dim))
    cones = sample_unit_normals_many(desc, A, density=density, rho_max=rho_max)
    bases, dirs, caps = [], [], []
    for a, cone in zip(A, cones):
        # Fat cones (isolated points see the whole direction grid) would
        # swamp the pair loop; a deterministic stride keeps a spread.
        stride = max(1, len(cone) // 40)
        for d, r in zip(cone.directions[::stride], cone.realizations[::stride]):
            cap = _segment_cap(desc, a, d, r)
            if cap > desc.membership_tol:
                bases.append(a)
                dirs.append(d)
                caps.append(cap)
    rows = (-1, desc.dim)
    return samples, (np.reshape(bases, rows), np.reshape(dirs, rows), np.asarray(caps, dtype=float))


def is_s_convex(desc: ClosedSetDesc, s_membership, sample, seed: int) -> SConvexityReport:
    """Sampled S-convexity falsifier over a ``normal_segments`` sample.

    Two detectors: exact pairwise intersection of sampled normal segments
    with distinct bases (each extended to the smaller of its realization
    radius, its first return to the boundary, and the scene scale, and
    required to stay inside S up to the intersection), and equidistant-point
    probing between boundary samples of distinct components (a point of S
    outside the set with two projection clusters whose projection segments
    stay in S is a crossing of two normal segments).  Any confirmed crossing
    fails the check.  Pairs (i, j), i < j, go in order: segment i against
    all later ones at once, its hits confirmed in order.  ``s_membership``
    maps an (m, d) array of points to an (m,) mask.
    """
    samples, (bases, dirs, caps) = sample
    rng = np.random.default_rng(seed)
    notes: list[str] = []

    if not np.all(s_membership(desc.oracle.probe_points(32, rng))):
        notes.append("membership precheck: S does not contain a set probe")

    base_tol = 1e-9 * desc.diameter
    violations: list[SConvexityViolation] = []
    pairs = 0

    def confirmed(a1, others, hits, points):
        """Hits whose crossing point lies outside the set and in S (each
        asked for all hits of the row in one call), then, in order, whose
        segments from a1 and from their other base up to it stay in S."""
        hits = hits[~desc.contains_many(points[hits])]
        hits = hits[s_membership(points[hits])] if hits.size else hits
        for k in hits:
            p = points[k]
            if _segment_in_s(s_membership, a1, p) and _segment_in_s(s_membership, others[k], p):
                yield k

    for i in range(len(caps)):
        a1, d1, T1 = bases[i], dirs[i], caps[i]
        later = i + 1 + np.flatnonzero(np.linalg.norm(bases[i + 1:] - a1, axis=1) > base_tol)
        exhausted = later.size > MAX_PAIRS - pairs
        later = later[:MAX_PAIRS - pairs]
        hit, t, s, points = _crossings(desc, a1, d1, T1, bases[later], dirs[later], caps[later])
        k = next(confirmed(a1, bases[later], np.flatnonzero(hit), points), None)
        if k is not None:
            pairs += int(k) + 1
            j = later[k]
            violations.append(
                SConvexityViolation(
                    as_tuple(a1), as_tuple(d1), float(t[k]), as_tuple(bases[j]),
                    as_tuple(dirs[j]), float(s[k]), as_tuple(points[k]), "segment-pair",
                )
            )
            break
        pairs += later.size
        if exhausted:
            notes.append(f"pair budget {MAX_PAIRS} exhausted")
            break

    if not violations:
        violations.extend(_equidistant_probe(desc, s_membership, samples))

    verdict = "holds" if not violations else "fails"
    return SConvexityReport(verdict, violations, len(caps), pairs, seed, notes)


def _equidistant_probe(desc, s_membership, samples):
    """Find crossings through points equidistant from two components, trying
    at most 160 sample pairs: the pairs of one label pair are bisected in
    lockstep, then checked in order up to the first crossing."""
    by_label: dict[str, list[np.ndarray]] = {}
    for p, lab in samples:
        by_label.setdefault(lab, []).append(p)
    labels = sorted(by_label)
    leaf_by_label = {leaf.label: leaf for leaf in desc.leaves}
    budget = 160
    for ii in range(len(labels)):
        for jj in range(ii + 1, len(labels)):
            if budget <= 0:
                return []
            li, lj = leaf_by_label[labels[ii]], leaf_by_label[labels[jj]]
            pool_i, pool_j = by_label[labels[ii]][:8], by_label[labels[jj]][:8]
            pairs = [(p_i, p_j) for p_i in pool_i for p_j in pool_j][:budget]
            budget -= len(pairs)
            P_i, P_j = (np.asarray(ends) for ends in zip(*pairs))
            for s_pt in _bisect_equidistant(desc, li, lj, P_i, P_j):
                if s_pt is None:
                    continue
                if desc.contains(s_pt) or not s_membership(s_pt[None, :])[0]:
                    continue
                proj = desc.project(s_pt)
                if proj.multiplicity < 2:
                    continue
                a, b = proj.points[0], proj.points[1]
                da, db = norm(s_pt - a), norm(s_pt - b)
                if da <= 0.0 or db <= 0.0:
                    continue
                dir_a, dir_b = (s_pt - a) / da, (s_pt - b) / db
                ret_a = first_boundary_return(desc, a, dir_a)
                ret_b = first_boundary_return(desc, b, dir_b)
                slack = 1e-6 * (1.0 + desc.diameter)
                if da > ret_a + slack or db > ret_b + slack:
                    continue
                if not (
                    _segment_in_s(s_membership, a, s_pt)
                    and _segment_in_s(s_membership, b, s_pt)
                ):
                    continue
                return [
                    SConvexityViolation(
                        as_tuple(a), as_tuple(dir_a), float(da),
                        as_tuple(b), as_tuple(dir_b), float(db),
                        as_tuple(s_pt), "equidistant-point",
                    )
                ]
    return []


def _bisect_equidistant(desc, leaf_i, leaf_j, P_i, P_j):
    """For each row pair (p_i, p_j): the point of the segment between them
    where the distances to the two leaves agree, or None where the ends do
    not bracket a sign change of the distance gap or the point found is not
    a nearest point of the set to both leaves.  The rows are bisected in
    lockstep, 80 halvings each, two leaf distance calls per halving; a
    leaf's ``distance_many`` gives every row the bits of a one-row call, so
    the point a row finds does not depend on the other rows."""

    def gap(P):
        return leaf_i.distance_many(P) - leaf_j.distance_many(P)

    out = [None] * P_i.shape[0]
    g0, g1 = gap(P_i), gap(P_j)
    rows = np.flatnonzero(~((g0 > 0.0) | (g1 < 0.0) | (g0 == g1)))
    if rows.size == 0:
        return out
    A, D = P_i[rows], P_j[rows] - P_i[rows]
    lo, hi = bisect(
        lambda t: gap(A + t[:, None] * D) <= 0.0, np.zeros(rows.size), np.ones(rows.size), steps=80,
    )
    S = A + (0.5 * (lo + hi))[:, None] * D
    d_i, d_j = leaf_i.distance_many(S), leaf_j.distance_many(S)
    tol = desc.cluster_tol
    found = ~(np.abs(d_i - d_j) > tol) & ~(d_i > desc.distance_many(S) + tol)
    for r, s_pt, ok in zip(rows, S, found):
        if ok:
            out[r] = s_pt
    return out


# ---------------------------------------------------------------------------
# Side conditions of the capped envelope
# ---------------------------------------------------------------------------


@dataclass
class UniqueProjectionViolation:
    point: tuple
    multiplicity: int
    projections: tuple


@dataclass
class UniqueProjectionReport:
    verdict: str
    located_boundary_points: int
    violations: list
    seed: int
    notes: list = field(default_factory=list)


def check_boundary_projection_uniqueness(
    ctx: EnvelopeContext,
    rays: int = 80,
    seed: int = 0,
) -> UniqueProjectionReport:
    """Every membership-boundary point of the capped envelope must project
    uniquely onto the set.

    Boundary points of the envelope are located by membership-flip bisection
    along segments between member and non-member probes (400 uniform probes
    of the box); the bisection keeps its member end, so every endpoint is a
    member.  The (member, non-member) pairs are drawn first and all rays
    are bisected in lockstep, one envelope call per step.  Endpoints in the
    set are skipped; ``located_boundary_points`` counts the endpoints the
    quantifier tested.
    """
    desc = ctx.desc
    rng = np.random.default_rng(seed)
    lo, hi = desc.box
    pool = rng.uniform(lo, hi, size=(400, desc.dim))
    member_mask = envelope_many(ctx, pool, capped=True)
    inside = pool[member_mask]
    outside = pool[~member_mask]
    notes: list[str] = []
    if inside.shape[0] == 0 or outside.shape[0] == 0:
        return UniqueProjectionReport(
            "holds", 0, [], seed, ["envelope boundary not locatable (one-sided probes)"]
        )
    picks = [(rng.integers(inside.shape[0]), rng.integers(outside.shape[0])) for _ in range(rays)]
    picks = np.asarray(picks, dtype=int).reshape(rays, 2)
    x_star, _ = bisect(
        lambda P: envelope_many(ctx, P, capped=True),
        inside[picks[:, 0]], outside[picks[:, 1]], steps=60,
    )
    x_star = x_star[~desc.contains_many(x_star)]
    violations = [
        UniqueProjectionViolation(
            as_tuple(x), proj.multiplicity, tuple(as_tuple(p) for p in proj.points),
        )
        for x, proj in zip(x_star, desc.project_many(x_star))
        if proj.multiplicity > 1
    ]
    verdict = "holds" if not violations else "fails"
    return UniqueProjectionReport(verdict, x_star.shape[0], violations, seed, notes)


@dataclass
class OpennessReport:
    verdict: str
    tested: int
    non_open_points: list
    seed: int
    notes: list = field(default_factory=list)


def check_thin_margin_open(
    ctx: EnvelopeContext,
    samples: int = 60,
    seed: int = 0,
) -> OpennessReport:
    """Sampled openness of the thin-margin set: around each member some
    radius must keep 20 random perturbations inside; vacuously open when
    empty."""
    desc = ctx.desc
    rng = np.random.default_rng(seed)
    try:
        pool = desc.sample_exterior(8 * samples, seed=seed)
    except SetError:  # complement nearly empty
        return OpennessReport("holds", 0, [], seed, ["no exterior probes available"])
    # Classified a chunk of `samples` rows at a time, up to the chunk that
    # completes the members.
    members: list[np.ndarray] = []
    for start in range(0, pool.shape[0], samples):
        if len(members) >= samples:
            break
        chunk = pool[start:start + samples]
        members.extend(chunk[near_thin_boundary_many(ctx, chunk)])
    members = members[:samples]
    if not members:
        return OpennessReport("holds", 0, [], seed, ["thin-margin set empty on probes; vacuously open"])
    eta_min = 1e-6 * desc.diameter
    non_open = []
    for x in members:
        eta = 0.05 * desc.diameter
        opened = False
        while eta >= eta_min and not opened:
            raw = rng.normal(size=(20, desc.dim))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            if np.all(near_thin_boundary_many(ctx, x + eta * dirs)):
                opened = True
            else:
                eta *= 0.5
        if not opened:
            non_open.append(as_tuple(x))
    verdict = "holds" if not non_open else "fails"
    return OpennessReport(verdict, len(members), non_open, seed)


# ---------------------------------------------------------------------------
# The three-way equivalence harness
# ---------------------------------------------------------------------------


@dataclass
class HarnessReport:
    condition: ConditionReport
    full_envelope_convexity: SConvexityReport
    capped_envelope_convexity: SConvexityReport
    uniqueness: UniqueProjectionReport
    openness: OpennessReport
    verdicts: dict
    consistent: bool


def equivalence_harness(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    boundary_samples: int = 120,
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> HarnessReport:
    """Run the three equivalent characterizations and compare the verdicts.

    (i) the extended exterior sphere condition, (ii) convexity relative to
    the full envelope, (iii) convexity relative to the capped envelope plus
    unique projections on its boundary plus openness of the thin-margin set.
    The consistency flag is this artifact's falsification instrument for its
    own implementation; marginal verdicts are excluded from the comparison.
    """
    ctx = EnvelopeContext(desc, radius_field, density, rho_max)
    condition = check_extended_condition(
        desc, radius_field, boundary_samples=boundary_samples, density=density,
        seed=seed, rho_max=rho_max,
    )
    # One sample of normal segments serves both envelopes.
    sample = normal_segments(desc, boundary_samples, density, seed, rho_max)
    full = is_s_convex(desc, lambda P: envelope_many(ctx, P), sample, seed)
    capped = is_s_convex(desc, lambda P: envelope_many(ctx, P, capped=True), sample, seed)
    uniq = check_boundary_projection_uniqueness(ctx, seed=seed)
    openness = check_thin_margin_open(ctx, seed=seed)
    v_i = condition.verdict
    v_ii = full.verdict
    iii_parts = (capped.verdict, uniq.verdict, openness.verdict)
    v_iii = "holds" if all(v == "holds" for v in iii_parts) else "fails"
    verdicts = {"i": v_i, "ii": v_ii, "iii": v_iii, "iii_parts": {
        "capped_convexity": capped.verdict,
        "unique_projection": uniq.verdict,
        "thin_margin_open": openness.verdict,
    }}
    comparable = [v for v in (v_i, v_ii, v_iii) if v in ("holds", "fails")]
    consistent = len(set(comparable)) <= 1
    return HarnessReport(condition, full, capped, uniq, openness, verdicts, consistent)
