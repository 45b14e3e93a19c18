"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated tolerance and time budget."""

import math
import time

import numpy as np
import pytest

from extsphere.conditions import (
    audit_lower_semicontinuity,
    check_extended_condition,
    cover_radius,
)
from extsphere.cover import construct_witness
from extsphere.proximal import (
    RadiusField,
    is_realized_by_sphere,
    sample_unit_normals,
)
from extsphere.sconvex import (
    EnvelopeContext,
    equivalence_harness,
    in_capped_envelope,
    in_full_envelope,
    in_unique_reach_zone,
    is_s_convex,
    near_thin_boundary,
    normal_segments,
)

from conftest import (
    make_ball,
    make_ballcomplement,
    make_lineplane,
    make_strip,
)


class Timer:
    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if self.elapsed < self.budget_s else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.label}: {status} ({self.elapsed:.2f}s < {self.budget_s:.0f}s)")
            assert self.elapsed < self.budget_s, f"{self.label} exceeded {self.budget_s}s"
        return False


def test_criterion_1_strip_cover_radius_and_lsc():
    fix = make_strip()
    with Timer("1 (strip cover radius + lsc)", 1.0):
        assert cover_radius(fix.desc, fix.rf, (0, 1)) == pytest.approx(0.25, abs=1e-9)
        for n in range(2, 11):
            value = cover_radius(fix.desc, fix.rf, (0, 1 + 1 / n))
            assert value == pytest.approx(0.5, abs=1e-9)
        audit = audit_lower_semicontinuity(
            fix.desc, fix.rf, rays=[((0, 1), (0, 1))], random_rays=6, seed=7
        )
        assert audit.verdict == "holds"
        declared = audit.records[0]
        assert declared.target == (0.0, 1.0)
        assert declared.lsc_ok and declared.discontinuous


def test_criterion_2_strip_check_and_full_cover():
    fix = make_strip()
    desc, rf = fix.desc, fix.rf
    with Timer("2 (strip check + 1000 witnesses)", 30.0):
        report = check_extended_condition(
            desc, rf, boundary_samples=200, density=720, seed=7, rho_max=100.0
        )
        assert report.verdict == "holds"
        assert report.counts()["violations"] == 0
        oracle = desc.oracle
        pts = desc.sample_exterior(1000, seed=77)
        succeeded = 0
        for i, x in enumerate(pts):
            w = construct_witness(desc, rf, x, seed=i)
            if not (w.ok and w.ball is not None):
                continue
            c = np.asarray(w.ball.center)
            r = w.ball.radius
            analytic_ok = np.linalg.norm(x - c) <= r + 1e-9 and desc.distance(c) >= r - 1e-9
            if analytic_ok and (i % 20 or oracle.distance(c) >= r - 2 * oracle.h):
                succeeded += 1
        assert succeeded == 1000, f"{succeeded}/1000 witnesses verified"


def test_criterion_3_lineplane_golden_memberships():
    fix = make_lineplane()
    ctx = EnvelopeContext(fix.desc, fix.rf, rho_max=100.0)
    with Timer("3 (line-plane golden memberships)", 5.0):
        for p in [(0, 0.5), (0, -0.5), (0, 2), (0, 5)]:
            assert in_capped_envelope(ctx, p), p
        for p in [(0, 1), (0, 1.5), (0, -1)]:
            assert not in_capped_envelope(ctx, p), p
        for p in [(0, 0.5), (0, -0.5), (0, 2), (0, 5), (0, 1), (0, 1.5), (0, -1)]:
            assert in_full_envelope(ctx, p), p
        assert near_thin_boundary(ctx, (0, 0.5))
        assert near_thin_boundary(ctx, (0, -0.5))
        assert not near_thin_boundary(ctx, (0, 0))
        assert not near_thin_boundary(ctx, (0, 1))
        proj = fix.desc.project((0, 2))
        assert proj.multiplicity == 2
        pts = sorted(tuple(p) for p in proj.points)
        assert abs(pts[0][0]) <= 1e-6 and abs(pts[0][1] - 0.0) <= 1e-6
        assert abs(pts[1][0]) <= 1e-6 and abs(pts[1][1] - 4.0) <= 1e-6


def test_criterion_4_lineplane_harness_and_certificates():
    fix = make_lineplane()
    with Timer("4 (line-plane harness)", 30.0):
        report = equivalence_harness(
            fix.desc, fix.rf, boundary_samples=60, density=720, seed=7, rho_max=100.0
        )
        assert report.verdicts["i"] == "fails"
        assert report.verdicts["ii"] == "fails"
        assert report.verdicts["iii"] == "fails"
        assert report.consistent
        # (iii) certificate: a capped-envelope boundary point with two projections.
        up_violation = report.uniqueness.violations[0]
        assert up_violation.multiplicity == 2
        # (i) certificate: a plane point whose best realization is 2 < 3.
        cert = report.condition.violations()[0].certificate
        assert cert.point[1] == pytest.approx(4.0, abs=1e-9)
        assert cert.required == 3.0
        assert cert.realization == pytest.approx(2.0, abs=1e-6)
        # Independent oracle for the value 2: the tangent ball of radius 2 at
        # the certificate point is equidistant from both components.
        center = np.asarray(cert.point) + 2.0 * np.asarray(cert.direction)
        assert abs(fix.desc.oracle.distance(center) - 2.0) <= 2 * fix.desc.oracle.h
        assert abs(center[1] - 2.0) <= 1e-6


def test_criterion_5_constant_radius_witness_radii():
    scenes = [
        (make_ball(5), 5.0),
        (make_strip(), None),  # replaced below by a constant field
        (make_ballcomplement(1), 1.0),
    ]
    strip_fix = scenes[1][0]
    scenes[1] = (
        type(strip_fix)(strip_fix.desc, RadiusField.constant(strip_fix.desc, 1.0)),
        1.0,
    )
    with Timer("5 (constant-radius witness radii)", 30.0):
        for fix, r_const in scenes:
            desc, rf = fix.desc, fix.rf
            half = r_const / 2.0
            nontrivial_branch = 0
            pts = desc.sample_exterior(120, seed=5)
            for i, x in enumerate(pts):
                rho = cover_radius(desc, rf, x)
                assert rho == pytest.approx(half, abs=1e-9)
                w = construct_witness(desc, rf, x, seed=i)
                assert w.ok, w.note
                assert w.ball is not None
                assert w.ball.radius == pytest.approx(half, abs=1e-6)
                c = np.asarray(w.ball.center)
                assert np.linalg.norm(x - c) <= half + 1e-6
                assert desc.distance(c) >= half - 1e-6
                if w.case_tag != "C1-direct":
                    nontrivial_branch += 1
            assert nontrivial_branch > 0, "no sample exercised the outward branches"


def test_criterion_6_property_suites():
    with Timer("6 (property suites)", 120.0):
        strip = make_strip()
        shell = make_ballcomplement()
        lineplane = make_lineplane()
        rng = np.random.default_rng(7)

        # Realization monotonicity, 1000+ probes.
        checked = 0
        for fix in (strip, shell):
            desc = fix.desc
            for a, _ in desc.sample_boundary(45, seed=11):
                cone = sample_unit_normals(desc, a, density=180, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = realization if math.isfinite(realization) else 50.0
                    for frac in rng.uniform(0.05, 0.98, size=12):
                        assert is_realized_by_sphere(desc, a, direction, float(frac * rho))
                        checked += 1
        assert checked >= 1000

        # Tangent-ball emptiness matches the proximal inequality on brute
        # force set points, 1000+ inequality evaluations per scene.
        for fix in (strip, shell):
            desc = fix.desc
            cloud = desc.oracle.probe_points(1000, rng)
            pairs = 0
            for a, _ in desc.sample_boundary(25, seed=13):
                cone = sample_unit_normals(desc, a, density=90, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = 0.999 * min(realization, 50.0)
                    assert is_realized_by_sphere(desc, a, direction, rho)
                    w = cloud - a
                    lhs = w @ direction
                    rhs = np.sum(w * w, axis=1) / (2.0 * rho)
                    assert np.all(lhs <= rhs + 1e-9 * desc.diameter)
                    pairs += 1
            assert pairs >= 20

        # Projections along a realized normal stay unique, 1000+ probes.
        probes = 0
        for fix in (strip, shell):
            desc = fix.desc
            for a, _ in desc.sample_boundary(26, seed=31):
                cone = sample_unit_normals(desc, a, density=90, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = min(realization, 50.0)
                    for t in np.linspace(0.02, 0.98, 20) * rho:
                        proj = desc.project(a + t * direction)
                        assert proj.multiplicity == 1
                        assert np.linalg.norm(proj.points[0] - a) <= desc.cluster_tol
                        probes += 1
        assert probes >= 1000

        # Envelope set algebra on 1000 probes per scene.
        for fix in (strip, lineplane):
            ctx = EnvelopeContext(fix.desc, fix.rf, rho_max=100.0)
            lo, hi = fix.desc.box
            pts = rng.uniform(lo, hi, size=(1000, fix.desc.dim))
            for p in pts:
                capped = in_capped_envelope(ctx, p)
                full = in_full_envelope(ctx, p)
                reach = in_unique_reach_zone(ctx, p)
                reach_capped = in_unique_reach_zone(ctx, p, capped=True)
                thin = near_thin_boundary(ctx, p)
                assert full == (capped or reach)
                assert not (capped and not full)
                assert not (reach_capped and not reach)
                assert not (thin and not capped)

        # Bridging-ball containment: 100 admissible geometries, 10^4 points
        # each, zero violations at 1e-7 of the configuration scale.
        from extsphere.cover import bridging_ball_radius

        for _ in range(100):
            clearance = rng.uniform(0.1, 2.0)
            cover = rng.uniform(1.001, 3.0) * clearance
            separation = rng.uniform(1.0, 3.0) * cover
            rho = bridging_ball_radius(clearance, separation, cover)
            x = rng.uniform(-3, 3, size=2)
            angle = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(angle), math.sin(angle)])
            y = x + separation * u
            scale = separation + cover
            center = x + rho * u
            raw = rng.normal(size=(10000, 2))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rho * np.sqrt(rng.random(10000))
            pts = center + dirs * radii[:, None]
            in_x = np.linalg.norm(pts - x, axis=1) <= clearance + 1e-7 * scale
            in_y = np.linalg.norm(pts - y, axis=1) <= cover + 1e-7 * scale
            assert int(np.sum(~(in_x | in_y))) == 0


def test_criterion_7_convexity_baseline():
    fix = make_ball("inf")
    with Timer("7 (convex baseline)", 10.0):
        report = is_s_convex(
            fix.desc, lambda P: np.ones(len(P), dtype=bool),
            normal_segments(fix.desc, 60, None, 7, 50.0), 7,
        )
        assert report.verdict == "holds"
        cond = check_extended_condition(
            fix.desc, fix.rf, boundary_samples=60, density=720, seed=7, rho_max=50.0
        )
        assert cond.verdict == "holds"
        # The infinite requirement runs through the rho_max cap protocol.
        assert all(math.isinf(rec.required) for rec in cond.records)
