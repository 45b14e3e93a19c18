"""Checkers for the variable-radius exterior sphere condition.

The extended condition asks, at every boundary point a with boundary radius
r(a): if a lies on the boundary of the interior, SOME unit proximal normal
must be realized by an r(a)-sphere; at every other boundary point, EVERY
unit proximal normal must be.  An infinite r(a) is tested at the rho_max cap
and reported under the documented +inf protocol.

Every verdict is "at tested samples and density": the checkers are
falsifiers that attach certificates, not provers.  Reports embed the seed
and sample counts so reruns reproduce them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import attaining_projection
from .cover import cover_radius, verify_union_of_balls  # noqa: F401 - re-exported
from .geom import INF, GeometryError, as_tuple, as_vec, normalized
from .proximal import (
    RHO_MIN,
    RadiusField,
    cone_margins,
    default_density,
    default_rho_max,
    is_proximal_normal,
    sample_unit_normals_many,
)
from .sets import ClosedSetDesc

BDRY_INT = "bdry-int"
NOT_BDRY_INT = "not-bdry-int"
UNCLASSIFIED = "unclassified"


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------


@dataclass
class ViolationCertificate:
    point: tuple
    direction: tuple
    realization: float
    required: float
    margin: float
    kind: str = "realization-deficit"


@dataclass
class BoundarySampleRecord:
    point: tuple
    label: str
    classification: str
    quantifier: str
    normals_tested: int
    required: float
    realizations: tuple
    ok: bool
    marginal: bool
    certificate: ViolationCertificate | None = None
    note: str = ""


@dataclass
class ConditionReport:
    verdict: str  # holds | fails | marginal | vacuous
    records: list
    seed: int
    boundary_samples: int
    density: int
    rho_max: float
    notes: list = field(default_factory=list)

    def violations(self):
        return [rec for rec in self.records if rec.certificate is not None]

    def counts(self):
        out = {"total": len(self.records), "violations": 0, "marginal": 0, "unclassified": 0}
        for rec in self.records:
            if rec.certificate is not None:
                out["violations"] += 1
            elif rec.marginal:
                out["marginal"] += 1
            if rec.classification == UNCLASSIFIED:
                out["unclassified"] += 1
        return out


# ---------------------------------------------------------------------------
# The main checker
# ---------------------------------------------------------------------------


def check_extended_condition(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    boundary_samples: int = 200,
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
    force_forall: bool = False,
) -> ConditionReport:
    """Sampled check of the extended exterior sphere condition.

    Boundary-of-interior points use the EXISTS quantifier over the sampled
    normal cone, all other boundary points the FORALL quantifier.  FORALL
    violations are confirmed against the proximal normal inequality before
    they enter the report, so sampling artifacts near the cone boundary
    cannot masquerade as certificates.
    """
    density = default_density(desc.dim) if density is None else density
    rho_max = default_rho_max(desc) if rho_max is None else float(rho_max)
    missing = radius_field.covers(desc)
    if missing:
        raise GeometryError(f"radius field does not cover components {missing}")
    samples = desc.sample_boundary(boundary_samples, seed=seed)
    required = [radius_field.value(a, (label,)) for a, label in samples]
    P = np.reshape([a for a, _ in samples], (-1, desc.dim))
    # One classification, one cone call and one margin call for all samples.
    on, inner = desc.boundary_of_interior_many(P)
    rows = np.flatnonzero(on)
    cones = sample_unit_normals_many(desc, P[rows], density=density, rho_max=rho_max)
    rho_test = [min(required[i], rho_max) for i in rows]
    margins = cone_margins(desc, P[rows], cones, rho_test)
    tested = {i: (cone, m) for i, cone, m in zip(rows.tolist(), cones, margins)}
    records: list[BoundarySampleRecord] = []
    notes: list[str] = []
    any_violation = False
    any_marginal = False
    for i, (a, label) in enumerate(samples):
        if i not in tested:
            records.append(
                BoundarySampleRecord(
                    as_tuple(a), label, UNCLASSIFIED, "-", 0, required[i], (), False, False,
                    note="classification failed; sample excluded",
                )
            )
            continue
        classification = BDRY_INT if inner[i] else NOT_BDRY_INT
        quantifier = "forall" if (force_forall or classification == NOT_BDRY_INT) else "exists"
        rec = _check_sample(
            desc, a, label, classification, quantifier, required[i], rho_max, seed, *tested[i]
        )
        records.append(rec)
        any_violation |= rec.certificate is not None
        any_marginal |= rec.marginal
    if not records:
        verdict = "vacuous"
    elif any_violation:
        verdict = "fails"
    elif any_marginal:
        verdict = "marginal"
    else:
        verdict = "holds"
    return ConditionReport(verdict, records, seed, boundary_samples, density, rho_max, notes)


def _check_sample(desc, a, label, classification, quantifier, required, rho_max, seed, cone, margins):
    """The record of one classified sample, from its sampled cone and the
    cone's realization margins at the required radius (capped at rho_max)."""
    if not cone:
        if quantifier == "exists":
            cert = ViolationCertificate(as_tuple(a), (), 0.0, required, -INF, kind="no-normal-found")
            return BoundarySampleRecord(
                as_tuple(a), label, classification, quantifier, 0, required, (), False, False, cert,
                note="no unit normal found at tested density",
            )
        return BoundarySampleRecord(
            as_tuple(a), label, classification, quantifier, 0, required, (), True, False,
            note="empty sampled cone; forall holds vacuously",
        )
    dirs = cone.directions
    ok_mask = margins >= -desc.realize_tol
    marginal_mask = (~ok_mask) & (margins >= -desc.ball_tol)
    reals = tuple(round(r, 12) for r in cone.realizations.tolist())

    if quantifier == "exists":
        if bool(np.any(ok_mask)):
            return BoundarySampleRecord(
                as_tuple(a), label, classification, quantifier, len(cone), required, reals,
                True, False,
            )
        if bool(np.any(marginal_mask)):
            return BoundarySampleRecord(
                as_tuple(a), label, classification, quantifier, len(cone), required, reals,
                False, True, note="best realization within the marginal band",
            )
        best = int(np.argmax(margins))
        cert = ViolationCertificate(
            as_tuple(a), as_tuple(dirs[best]), float(cone.realizations[best]), required, float(margins[best])
        )
        return BoundarySampleRecord(
            as_tuple(a), label, classification, quantifier, len(cone), required, reals,
            False, False, cert,
        )

    # forall
    bad = np.nonzero(~ok_mask & ~marginal_mask)[0]
    for idx in bad:
        zeta = dirs[idx]
        claimed = float(cone.realizations[idx])
        sigma = 1.0 / (2.0 * max(claimed if math.isfinite(claimed) else rho_max, RHO_MIN))
        if is_proximal_normal(desc, a, zeta, sigma, seed=seed):
            cert = ViolationCertificate(
                as_tuple(a), as_tuple(zeta), claimed, required, float(margins[idx])
            )
            return BoundarySampleRecord(
                as_tuple(a), label, classification, quantifier, len(cone), required, reals,
                False, False, cert,
            )
    if bool(np.any(marginal_mask)):
        return BoundarySampleRecord(
            as_tuple(a), label, classification, quantifier, len(cone), required, reals,
            False, True, note="some realization within the marginal band",
        )
    note = "" if bad.size == 0 else "unconfirmed sampling artifacts dropped"
    return BoundarySampleRecord(
        as_tuple(a), label, classification, quantifier, len(cone), required, reals,
        True, False, note=note,
    )


def check_condition_on_interior_closure(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    boundary_samples: int = 200,
    density: int | None = None,
    seed: int = 0,
    rho_max: float | None = None,
) -> ConditionReport:
    """Classical (FORALL-form) exterior sphere check on cl(int A).

    The regularization is computed per primitive in the CSG tree; an empty
    interior yields a vacuous report.
    """
    reg = desc.closure_of_interior()
    if reg is None:
        return ConditionReport(
            "vacuous", [], seed, 0, density or default_density(desc.dim),
            rho_max or default_rho_max(desc), ["interior is empty"],
        )
    return check_extended_condition(
        reg, radius_field, boundary_samples, density, seed, rho_max, force_forall=True
    )


# ---------------------------------------------------------------------------
# Lower semicontinuity audit of the cover radius
# ---------------------------------------------------------------------------


@dataclass
class LscRecord:
    target: tuple
    direction: tuple
    value_at_target: float
    liminf_estimate: float
    lsc_ok: bool
    discontinuous: bool


@dataclass
class LscReport:
    verdict: str
    records: list
    tol: float
    seed: int

    def discontinuities(self):
        return [rec for rec in self.records if rec.discontinuous]


def audit_lower_semicontinuity(
    desc: ClosedSetDesc,
    radius_field: RadiusField,
    rays=None,
    random_rays: int = 20,
    seed: int = 0,
) -> LscReport:
    """Sampled lower-semicontinuity audit of the cover radius.

    Sequences of up to 20 halving steps approach each target along declared
    rays plus random ones; the liminf estimate (tail minimum) must not
    undercut the value at the target by more than 1e-6 times the scene
    diameter.  Genuine jumps (limit different from the value while lsc holds)
    are flagged as discontinuities, not failures.
    """
    tol = 1e-6 * desc.diameter
    rng = np.random.default_rng(seed)
    ray_list = [(as_vec(p, dim=desc.dim), normalized(v)) for p, v in (rays or [])]
    if random_rays:
        pool = desc.sample_exterior(random_rays, seed=seed + 1)
        for x in pool:
            raw = rng.normal(size=desc.dim)
            ray_list.append((x, normalized(raw)))
    records = []
    ok_all = True
    for target, v in ray_list:
        if desc.contains(target):
            continue
        value = attaining_projection(radius_field, desc.project(target))[-1]
        clearance = desc.distance(target)
        s0 = max(min(0.2 * desc.diameter, 0.9 * clearance), 1e-9)
        tail: list[float] = []
        for k in range(20):
            s = s0 * 2.0**-k
            if s < 4.0 * desc.cluster_tol:
                # Below the projection clustering resolution the sequence is
                # indistinguishable from its limit.
                break
            p = target + s * v
            if desc.contains(p):
                continue
            tail.append(attaining_projection(radius_field, desc.project(p))[-1])
        if len(tail) < 4:
            continue
        # The estimator bias is proportional to the approach scale, so only
        # the closest resolvable samples enter the liminf.
        liminf = min(tail[-3:])
        if math.isinf(value):
            lsc_ok = all(math.isinf(t) for t in tail)
            jump = not lsc_ok
        else:
            lsc_ok = liminf >= value - tol
            limit_est = tail[-1]
            jump = math.isinf(limit_est) or abs(limit_est - value) > tol
        ok_all &= lsc_ok
        records.append(
            LscRecord(as_tuple(target), as_tuple(v), value, liminf, lsc_ok, jump and lsc_ok)
        )
    return LscReport("holds" if ok_all else "fails", records, tol, seed)
