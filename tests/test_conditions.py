import numpy as np
import pytest

from extsphere.conditions import (
    audit_lower_semicontinuity,
    check_condition_on_interior_closure,
    check_extended_condition,
    cover_radius,
    verify_union_of_balls,
)
from extsphere import cover
from extsphere.cover import WitnessBall
from extsphere.geom import INF, Ball, GeometryError
from extsphere.proximal import RadiusField
from extsphere.sets import ClosedSetDesc


class TestCoverRadius:
    def test_strip_midline_value(self, strip):
        assert cover_radius(strip.desc, strip.rf, (0, 1)) == pytest.approx(0.25, abs=1e-9)

    def test_strip_above_midline(self, strip):
        for n in range(2, 11):
            value = cover_radius(strip.desc, strip.rf, (0, 1 + 1 / n))
            assert value == pytest.approx(0.5, abs=1e-9)

    def test_halfplane_infinite(self, halfplane):
        assert cover_radius(halfplane.desc, halfplane.rf, (0, 1)) == INF

    def test_rejects_member_points(self, strip):
        with pytest.raises(GeometryError):
            cover_radius(strip.desc, strip.rf, (0, -1))

    def test_constant_radius_specialization(self, ball, ballcomplement):
        # Constant boundary radius c makes the cover radius c/2 everywhere.
        for fix, c in ((ball, 5.0), (ballcomplement, 1.0)):
            for x in fix.desc.sample_exterior(60, seed=2):
                assert cover_radius(fix.desc, fix.rf, x) == pytest.approx(c / 2, abs=1e-9)


class TestCheckExtendedCondition:
    def test_strip_holds(self, strip):
        report = check_extended_condition(
            strip.desc, strip.rf, boundary_samples=60, seed=5, rho_max=100.0
        )
        assert report.verdict == "holds"
        assert report.counts()["violations"] == 0

    def test_lineplane_fails_with_plane_certificates(self, lineplane):
        report = check_extended_condition(
            lineplane.desc, lineplane.rf, boundary_samples=60, seed=5, rho_max=100.0
        )
        assert report.verdict == "fails"
        violations = report.violations()
        assert violations
        for rec in violations:
            cert = rec.certificate
            assert cert.point[1] == pytest.approx(4.0, abs=1e-9)
            assert cert.required == 3.0
            assert cert.realization == pytest.approx(2.0, abs=1e-6)
            assert np.allclose(cert.direction, [0, -1], atol=1e-6)
        # Line samples pass their FORALL quantifier.
        line_recs = [r for r in report.records if r.label == "line"]
        assert line_recs and all(r.ok for r in line_recs)

    def test_convex_ball_holds(self, ball):
        report = check_extended_condition(
            ball.desc, ball.rf, boundary_samples=40, seed=5, rho_max=100.0
        )
        assert report.verdict == "holds"

    def test_quantifier_exists_vs_forall(self):
        # A wedge corner with an obstacle: many normal directions, not all of
        # which reach the boundary radius.  The EXISTS branch holds; forcing
        # the FORALL branch at the same point must fail.
        from extsphere.sets import ClosedBall, ClosedSetDesc, HalfSpace, Intersection, Union

        desc = ClosedSetDesc(
            Union([
                Intersection([
                    HalfSpace((1, 0), 0.0, label="hx"),
                    HalfSpace((0, 1), 0.0, label="hy"),
                ]),
                ClosedBall((3, 3), 1.0, label="bump"),
            ]),
            box=((-6, -6), (6, 6)),
        )
        rf = RadiusField.from_sources({"hx": 2.1, "hy": 2.1, "bump": 0.5})
        corner = np.array([0.0, 0.0])

        desc.sample_boundary = lambda count, seed=0: [(corner, "hx")]
        on = np.ones(1, dtype=bool)
        desc.boundary_of_interior_many = lambda Q: (on, on)
        exists_report = check_extended_condition(desc, rf, boundary_samples=1, seed=0, rho_max=60.0)
        assert exists_report.verdict == "holds"
        desc.boundary_of_interior_many = lambda Q: (on, ~on)
        forall_report = check_extended_condition(desc, rf, boundary_samples=1, seed=0, rho_max=60.0)
        assert forall_report.verdict == "fails"

    def test_margin_calls_do_not_grow_with_samples(self, strip, monkeypatch):
        # All samples share one cone call and one margin call at the
        # required radius: the grid sweep goes BATCH_ROWS rows at a time,
        # and one lockstep bisection finds every realization radius.
        from extsphere import proximal

        original = proximal.realization_margins

        def run(samples):
            calls = []

            def counting(desc, a, dirs, rhos):
                calls.append((len(dirs), bool(np.all(np.asarray(rhos) == proximal.RHO_MIN))))
                return original(desc, a, dirs, rhos)

            monkeypatch.setattr(proximal, "realization_margins", counting)
            report = check_extended_condition(strip.desc, strip.rf, samples, seed=5, rho_max=100.0)
            monkeypatch.setattr(proximal, "realization_margins", original)
            assert report.verdict == "holds"
            sweep_rows = sum(rows for rows, sweep in calls if sweep)
            sweeps = sum(sweep for _, sweep in calls)
            # Each sweep batch but the last holds over half of BATCH_ROWS.
            assert sweeps <= sweep_rows // (proximal.BATCH_ROWS // 2) + 1
            return len(calls) - sweeps

        assert run(200) <= run(50)

    def test_monotone_in_radius_field(self, strip, ball):
        # Shrinking the radius field pointwise never flips holds to fails.
        for fix, shrunk in (
            (strip, RadiusField.from_sources({"bottom": 0.25, "top": 0.5})),
            (ball, RadiusField.from_sources({"disk": 2.5})),
        ):
            base = check_extended_condition(fix.desc, fix.rf, 40, seed=5, rho_max=100.0)
            small = check_extended_condition(fix.desc, shrunk, 40, seed=5, rho_max=100.0)
            assert base.verdict == "holds"
            assert small.verdict == "holds"

    def test_holds_implies_nonempty_cones(self, strip, ball):
        for fix in (strip, ball):
            report = check_extended_condition(fix.desc, fix.rf, 30, seed=5, rho_max=100.0)
            assert report.verdict == "holds"
            for rec in report.records:
                assert rec.normals_tested >= 1

    def test_uncovered_radius_field_rejected(self, strip):
        with pytest.raises(GeometryError):
            check_extended_condition(
                strip.desc, RadiusField.from_sources({"bottom": 1}), 10, seed=0
            )

    def test_marginal_band_verdict(self, strip):
        # A required radius a hair above the true realization lands in the
        # marginal band: reported as marginal, not as a hard violation.
        bump = strip.desc.ball_tol / 4.0
        rf = RadiusField.from_sources({"bottom": 0.5, "top": 1.0 + bump})
        report = check_extended_condition(strip.desc, rf, 30, seed=5, rho_max=100.0)
        assert report.verdict == "marginal"
        assert report.counts()["violations"] == 0
        assert report.counts()["marginal"] > 0


class TestConditionOnInteriorClosure:
    def test_strip_reduces_to_itself(self, strip):
        # The strip is regular closed: the regularization agrees with the set
        # on a probe grid, and the check holds.
        reg = strip.desc.closure_of_interior()
        rng = np.random.default_rng(7)
        lo, hi = strip.desc.box
        pts = rng.uniform(lo, hi, size=(500, 2))
        assert np.array_equal(reg.contains_many(pts), strip.desc.contains_many(pts))
        report = check_condition_on_interior_closure(
            strip.desc, strip.rf, boundary_samples=40, seed=5, rho_max=100.0
        )
        assert report.verdict == "holds"

    def test_lineplane_reduces_to_halfplane(self, lineplane):
        # cl(int A) drops the line; the remaining half-plane is convex and
        # passes the FORALL check even at boundary radius 3.
        reg = lineplane.desc.closure_of_interior()
        assert [leaf.label for leaf in reg.leaves] == ["plane"]
        report = check_condition_on_interior_closure(
            lineplane.desc, lineplane.rf, boundary_samples=40, seed=5, rho_max=100.0
        )
        assert report.verdict == "holds"

    def test_point_set_is_vacuous(self, pointset):
        report = check_condition_on_interior_closure(pointset.desc, pointset.rf, 10, seed=5)
        assert report.verdict == "vacuous"


class TestLscAudit:
    def test_strip_discontinuity_flagged_but_lsc(self, strip):
        report = audit_lower_semicontinuity(
            strip.desc, strip.rf, rays=[((0, 1), (0, 1))], random_rays=12, seed=5
        )
        assert report.verdict == "holds"
        declared = report.records[0]
        assert declared.target == (0.0, 1.0)
        assert declared.value_at_target == pytest.approx(0.25, abs=1e-9)
        assert declared.liminf_estimate == pytest.approx(0.5, abs=1e-9)
        assert declared.lsc_ok and declared.discontinuous

    def test_constant_radius_is_continuous(self, ball):
        report = audit_lower_semicontinuity(ball.desc, ball.rf, random_rays=16, seed=5)
        assert report.verdict == "holds"
        assert not report.discontinuities()

    def test_linear_radius_on_halfplane_continuous(self):
        from conftest import make_halfplane

        fix = make_halfplane("0.05*x + 2")
        report = audit_lower_semicontinuity(fix.desc, fix.rf, random_rays=16, seed=5)
        assert report.verdict == "holds"
        assert not report.discontinuities()


class TestVerifyUnionOfBalls:
    def test_strip_cover(self, strip):
        report = verify_union_of_balls(strip.desc, strip.rf, samples=120, seed=5)
        assert report.verdict == "holds"
        assert report.checked == 120

    def test_point_set_infinite_cover(self, pointset):
        report = verify_union_of_balls(
            pointset.desc, pointset.rf, samples=60, delta_list=(1.0, 10.0, 100.0), seed=5,
        )
        assert report.verdict == "holds"

    def test_ballcomplement_constant_radius_cover(self, ballcomplement):
        # Boundary radius 1 on the unit circle: the open disk is covered by
        # closed balls of radius 1/2.
        report = verify_union_of_balls(ballcomplement.desc, ballcomplement.rf, samples=120, seed=5)
        assert report.verdict == "holds"

    def test_radius_error_is_reported(self, strip):
        rf = RadiusField.from_sources({"bottom": "0*x - 1", "top": "0*x - 1"})
        report = verify_union_of_balls(strip.desc, rf, samples=3, seed=5)
        assert report.verdict == "fails"
        assert [v.kind for v in report.violations] == ["radius-error"] * 3

    def test_programming_error_propagates(self, strip, monkeypatch):
        def broken_value(self, p, labels):
            raise TypeError("broken radius rule")

        monkeypatch.setattr(RadiusField, "value", broken_value)
        with pytest.raises(TypeError):
            verify_union_of_balls(strip.desc, strip.rf, samples=3, seed=5)

    def test_failing_witness_is_reported(self, strip, monkeypatch):
        def displaced(desc, rf, X, attained, *args):
            return [
                WitnessBall(tuple(x), "C1-direct", ball=Ball(x + np.asarray([0.0, 5.0]), rho))
                for x, (*_, rho) in zip(X, attained)
            ]

        monkeypatch.setattr(cover, "_witnesses", displaced)
        report = verify_union_of_balls(strip.desc, strip.rf, samples=20, seed=5)
        assert report.verdict == "fails"
        assert {v.kind for v in report.violations} == {"not-covered"}

    def test_projects_each_sample_once(self, strip, monkeypatch):
        rows = []
        project_many = ClosedSetDesc.project_many

        def counted(self, P):
            rows.append(len(P))
            return project_many(self, P)

        monkeypatch.setattr(ClosedSetDesc, "project_many", counted)
        report = verify_union_of_balls(strip.desc, strip.rf, samples=20, seed=5)
        assert report.verdict == "holds"
        assert rows == [20]

    def test_empty_delta_list_rechecks_the_diameter(self, halfplane, monkeypatch):
        # A witness direction into the set: the diameter-sized delta-ball
        # the witness stands for must be re-checked, and it meets the set.
        def downward(desc, rf, X, attained, *args):
            return [WitnessBall(tuple(x), "C2.1", direction=(0.0, -1.0)) for x in X]

        monkeypatch.setattr(cover, "_witnesses", downward)
        report = verify_union_of_balls(
            halfplane.desc, halfplane.rf, samples=4, delta_list=(), seed=5
        )
        assert report.delta_list == (halfplane.desc.diameter,)
        assert [v.kind for v in report.violations] == ["delta-ball-meets-set"] * 4
