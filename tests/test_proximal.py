import math

import numpy as np
import pytest

from extsphere.geom import INF, GeometryError
from extsphere.proximal import (
    NotRealizedError,
    RadiusField,
    capped_realization_radius,
    directional_distance,
    first_boundary_return,
    is_proximal_normal,
    is_realized_by_sphere,
    realization_radius,
    sample_unit_normals,
)
from conftest import make_halfplane

SQ2 = math.sqrt(2.0)


class TestProximalNormalInequality:
    def test_supporting_halfspace_normal(self, halfplane):
        assert is_proximal_normal(halfplane.desc, (0, 0), (0, 1), sigma=0.0)

    def test_tilted_direction_fails_with_certificate(self, halfplane):
        check = is_proximal_normal(halfplane.desc, (0, 0), (1 / SQ2, 1 / SQ2), sigma=0.0)
        assert not check
        x = check.certificate
        assert x is not None and halfplane.desc.contains(x)
        # The certificate really violates the sigma = 0 inequality.
        assert float(np.asarray([1 / SQ2, 1 / SQ2]) @ x) > 0

    def test_inward_normal_of_ball_complement_at_half(self, ballcomplement):
        # Realized by a unit sphere, hence the inequality holds at sigma = 1/2.
        assert is_proximal_normal(ballcomplement.desc, (1, 0), (-1, 0), sigma=0.5, probes=10000)

    def test_rejects_off_boundary_base(self, halfplane):
        with pytest.raises(GeometryError):
            is_proximal_normal(halfplane.desc, (0, -1), (0, 1), sigma=0.0)


class TestRealization:
    def test_inscribed_disk(self, ballcomplement):
        assert is_realized_by_sphere(ballcomplement.desc, (1, 0), (-1, 0), 1.0)

    def test_oversized_ball_exits(self, ballcomplement):
        assert not is_realized_by_sphere(ballcomplement.desc, (1, 0), (-1, 0), 1.1)

    def test_strip_half_width(self, strip):
        assert is_realized_by_sphere(strip.desc, (0, 2), (0, -1), 1.0)

    def test_margin_is_tangency_gap(self, strip):
        check = is_realized_by_sphere(strip.desc, (0, 2), (0, -1), 0.5)
        assert check.margin == pytest.approx(0.0, abs=1e-12)


class TestRealizationRadius:
    def test_inscribed_disk_radius(self, ballcomplement):
        rho = realization_radius(ballcomplement.desc, (1, 0), (-1, 0), rho_max=100.0)
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_gap_width(self, strip):
        rho = realization_radius(strip.desc, (0, 2), (0, -1), rho_max=100.0)
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_convex_shortcut_to_infinity(self, halfplane):
        assert realization_radius(halfplane.desc, (0, 0), (0, 1), rho_max=100.0) == INF

    def test_cap_protocol_reports_infinity(self, lineplane):
        # Downward from the line nothing is ever hit; the scene is not
        # convex, so this goes through the rho_max cap protocol.
        assert not lineplane.desc.is_convex()
        assert realization_radius(lineplane.desc, (0, 0), (0, -1), rho_max=50.0) == INF

    def test_unrealized_direction_raises(self, strip):
        with pytest.raises(NotRealizedError):
            realization_radius(strip.desc, (0, 0), (1 / SQ2, -1 / SQ2), rho_max=10.0)


class TestCappedRealization:
    def test_finite_cap(self, strip):
        rf = RadiusField.from_sources({"bottom": 3, "top": 3})
        rho = capped_realization_radius(strip.desc, rf, (0, 2), (0, -1), rho_max=100.0)
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_cap_below_realization(self, halfplane):
        rf = RadiusField.from_sources({"floor": 0.5})
        assert capped_realization_radius(halfplane.desc, rf, (0, 0), (0, 1)) == 0.5

    def test_infinite_cap_passes_through(self, halfplane):
        rf = RadiusField.from_sources({"floor": "inf"})
        assert capped_realization_radius(halfplane.desc, rf, (0, 0), (0, 1)) == INF


class TestDirectionalDistance:
    def test_downward_hit(self, halfplane):
        assert directional_distance(halfplane.desc, (0, 1), (0, -1), 10.0) == pytest.approx(1.0)

    def test_upward_miss(self, halfplane):
        assert directional_distance(halfplane.desc, (0, 1), (0, 1), 10.0) == INF

    def test_strip_gap(self, strip):
        assert directional_distance(strip.desc, (0, 1), (0, 1), 10.0) == pytest.approx(1.0)

    def test_member_start_is_zero(self, halfplane):
        assert directional_distance(halfplane.desc, (0, -1), (0, 1), 10.0) == 0.0


class TestFirstBoundaryReturn:
    def test_across_the_gap(self, strip):
        assert first_boundary_return(strip.desc, (0, 0), (0, 1)) == pytest.approx(2.0)

    def test_never_returns(self, halfplane):
        assert first_boundary_return(halfplane.desc, (0, 0), (0, 1)) == INF

    def test_through_the_disk(self, ballcomplement):
        assert first_boundary_return(ballcomplement.desc, (1, 0), (-1, 0)) == pytest.approx(2.0)


class TestSampledCone:
    def test_halfplane_single_direction(self, halfplane):
        cone = sample_unit_normals(halfplane.desc, (0, 0), density=720, rho_max=100.0)
        assert len(cone) == 1
        assert np.allclose(cone.directions[0], [0, 1], atol=1e-9)

    def test_line_has_two_sided_normals(self, lineplane):
        cone = sample_unit_normals(lineplane.desc, (0, 0), density=720, rho_max=100.0)
        dirs = sorted(tuple(np.round(d, 9)) for d in cone.directions)
        assert dirs == [(-0.0, -1.0), (0.0, 1.0)] or dirs == [(0.0, -1.0), (0.0, 1.0)]
        # Both pass the probe-based inequality at the realization scale.
        for direction, realization in zip(cone.directions, cone.realizations):
            sigma = 0.0 if math.isinf(realization) else 1.0 / (2.0 * realization)
            assert is_proximal_normal(lineplane.desc, (0, 0), direction, sigma)

    def test_ball_single_radial_cone(self, ball):
        a = np.array([1.0, 0.0])
        cone = sample_unit_normals(ball.desc, a, density=720, rho_max=100.0)
        assert len(cone) == 1
        assert np.allclose(cone.directions[0], [1, 0], atol=1e-9)
        assert cone.realizations[0] == INF

    @pytest.mark.parametrize("with_realizations", [True, False])
    def test_cone_length_is_the_row_count(self, lineplane, pointset, with_realizations):
        for desc, a in ((lineplane.desc, (0, 0)), (lineplane.desc, (1, 4)), (pointset.desc, (0, 0))):
            cone = sample_unit_normals(
                desc, a, density=90, rho_max=50.0, with_realizations=with_realizations
            )
            assert len(cone) == cone.directions.shape[0] == cone.realizations.shape[0] > 0
            assert np.isnan(cone.realizations).all() != with_realizations

    def test_disk_cone_is_the_radial_normal(self, ball):
        # Grid directions within one grid step of the radial normal can pass
        # the noise band (margin ~ -RHO_MIN * angle^2 / 2); the normal
        # absorbs them.  Seed 19 drew 14 such samples of 60.
        for a, _ in ball.desc.sample_boundary(60, seed=19):
            cone = sample_unit_normals(ball.desc, a, density=720, rho_max=100.0)
            assert len(cone) == 1
            assert np.allclose(cone.directions[0], a / np.linalg.norm(a), rtol=0.0, atol=1e-12)

    def test_realizations_attached(self, lineplane):
        cone = sample_unit_normals(lineplane.desc, (0, 0), density=720, rho_max=100.0)
        up = cone.realizations[cone.directions[:, 1] > 0]
        down = cone.realizations[cone.directions[:, 1] < 0]
        assert up[0] == pytest.approx(2.0, abs=1e-6)
        assert down[0] == INF


class TestSampledConeProperties:
    def test_realization_monotonicity(self, strip, ballcomplement):
        # Realized at rho implies realized at every smaller radius.
        rng = np.random.default_rng(8)
        checked = 0
        for fix in (strip, ballcomplement):
            desc = fix.desc
            for a, _ in desc.sample_boundary(45, seed=11):
                cone = sample_unit_normals(desc, a, density=180, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = realization if math.isfinite(realization) else 50.0
                    for frac in rng.uniform(0.05, 0.98, size=12):
                        assert is_realized_by_sphere(desc, a, direction, float(frac * rho))
                        checked += 1
        assert checked >= 1000

    def test_realized_matches_inequality_on_probes(self, strip, ballcomplement):
        # Tangent-ball emptiness at rho matches the proximal inequality with
        # sigma = 1/(2 rho) over brute-force set points.
        rng = np.random.default_rng(9)
        for fix in (strip, ballcomplement):
            desc = fix.desc
            cloud = desc.oracle.probe_points(2000, rng)
            count = 0
            for a, _ in desc.sample_boundary(20, seed=13):
                cone = sample_unit_normals(desc, a, density=90, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = min(realization, 50.0)
                    assert is_realized_by_sphere(desc, a, direction, rho * 0.999)
                    w = cloud - a
                    lhs = w @ direction
                    rhs = (np.sum(w * w, axis=1)) / (2.0 * rho * 0.999)
                    assert np.all(lhs <= rhs + 1e-9 * desc.diameter)
                    count += 1
                    if count >= 50:
                        break
                if count >= 50:
                    break

    def test_projection_direction_realized_at_distance(self, strip, ballcomplement, lineplane):
        for fix in (strip, ballcomplement, lineplane):
            desc = fix.desc
            for x in desc.sample_exterior(40, seed=21):
                proj = desc.project(x)
                for a in proj.points:
                    d = float(np.linalg.norm(x - a))
                    if d <= 1e-9:
                        continue
                    zeta = (x - a) / d
                    assert is_realized_by_sphere(desc, a, zeta, d)

    def test_projection_unique_along_realized_normal(self, strip, ballcomplement):
        # Points strictly between the base and the tangent center project
        # back onto the base alone.
        for fix in (strip, ballcomplement):
            desc = fix.desc
            for a, _ in desc.sample_boundary(10, seed=31):
                cone = sample_unit_normals(desc, a, density=90, rho_max=50.0)
                for direction, realization in zip(cone.directions, cone.realizations):
                    rho = min(realization, 50.0)
                    for t in np.linspace(0.02, 0.98, 20) * rho:
                        proj = desc.project(a + t * direction)
                        assert proj.multiplicity == 1
                        assert np.linalg.norm(proj.points[0] - a) <= desc.cluster_tol


class TestRadiusField:
    def test_constant_rules(self, strip):
        rf = strip.rf
        assert rf.value((0, 0), ("bottom",)) == 0.5
        assert rf.value((0, 2), ("top",)) == 1.0

    def test_multi_label_takes_minimum(self, strip):
        assert strip.rf.value((0, 0), ("bottom", "top")) == 0.5

    def test_expression_rule(self):
        rf = RadiusField.from_sources({"floor": "0.1*x + 1"}, lipschitz=0.1)
        assert rf.value(np.array([2.0, 0.0]), ("floor",)) == pytest.approx(1.2)

    def test_expression_rejects_bad_names(self):
        with pytest.raises(GeometryError):
            RadiusField.from_sources({"floor": "__import__('os')"})

    def test_uncovered_label_raises(self, strip):
        with pytest.raises(GeometryError):
            strip.rf.value((0, 0), ("unknown",))

    def test_continuity_audit(self):
        fix = make_halfplane("0.1*x + 2")
        fix.desc.validate()
        rf = RadiusField.from_sources({"floor": "0.1*x + 2"}, lipschitz=0.1)
        assert rf.validate_continuity(fix.desc, seed=3)
        rf_bad = RadiusField.from_sources({"floor": "0.1*x + 2"}, lipschitz=0.0)
        assert not rf_bad.validate_continuity(fix.desc, seed=3)

    def test_covers(self, strip):
        rf = RadiusField.from_sources({"bottom": 1})
        assert rf.covers(strip.desc) == ["top"]
