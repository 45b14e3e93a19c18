"""Scenes built to stress the less-traveled dispatch paths."""

import json
import math
import os

import numpy as np
import pytest

from extsphere.cli import main
from extsphere.conditions import check_extended_condition, cover_radius
from extsphere.cover import construct_witness
from extsphere.proximal import RadiusField, realization_radius
from extsphere.sets import (
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    HalfSpace,
    Slab,
    Union,
)


@pytest.fixture(scope="module")
def band():
    desc = ClosedSetDesc(Slab((0, 1), -1.0, 1.0, label="band"), box=((-5, -5), (5, 5)))
    return desc, RadiusField.from_sources({"band": 4})


@pytest.fixture(scope="module")
def pair():
    return ClosedSetDesc(
        Union([ClosedBall((-1.5, 0), 1.0, label="west"), ClosedBall((1.5, 0), 1.0, label="east")]),
        box=((-4, -3), (4, 3)),
    )


class TestSlabScene:

    def test_condition_holds(self, band):
        desc, rf = band
        report = check_extended_condition(desc, rf, boundary_samples=40, seed=2, rho_max=60.0)
        assert report.verdict == "holds"

    def test_witnesses_on_both_sides(self, band):
        desc, rf = band
        for y in (2.5, -2.5, 1.4, -1.4):
            w = construct_witness(desc, rf, (0.3, y), seed=1)
            assert w.ok
            assert w.ball.radius == pytest.approx(2.0, abs=1e-9)


class TestSeparatedBalls:
    """Two balls with a gap of 1: facing points realize exactly half the
    center gap minus the radii; the boundary radius decides the verdict."""

    def test_facing_realization_value(self, pair):
        # Tangent ball from (-0.5, 0) rightward touches the east ball when
        # 2 rho = gap: rho* = 0.5.
        rho = realization_radius(pair, (-0.5, 0), (1, 0), rho_max=50.0)
        assert rho == pytest.approx(0.5, abs=1e-6)

    def test_small_radius_holds(self, pair):
        rf = RadiusField.constant(pair, 0.5)
        report = check_extended_condition(pair, rf, boundary_samples=60, seed=2, rho_max=50.0)
        assert report.verdict == "holds"

    def test_large_radius_fails_at_facing_points(self, pair):
        rf = RadiusField.constant(pair, 0.8)
        report = check_extended_condition(pair, rf, boundary_samples=120, seed=2, rho_max=50.0)
        assert report.verdict == "fails"
        for rec in report.violations():
            # Violations concentrate on the facing arcs: the radial direction
            # is blocked by the other ball before reaching 0.8.
            assert abs(rec.certificate.point[0]) < 1.5
            assert rec.certificate.realization < 0.8

    def test_midgap_witness(self, pair):
        rf = RadiusField.constant(pair, 0.5)
        w = construct_witness(pair, rf, (0.0, 0.0), seed=3)
        assert w.ok
        assert w.ball.radius == pytest.approx(0.25, abs=1e-9)


class TestSwallowedComponent:
    def test_boundary_samples_skip_interior_points(self):
        # A point component strictly inside a ball is not on the union's
        # boundary; samples must come from the sphere only.
        desc = ClosedSetDesc(
            Union([ClosedBall((0, 0), 2.0, label="disk"), FinitePointSet([(0.5, 0)], label="seed")]),
            box=((-4, -4), (4, 4)),
        )
        samples = desc.sample_boundary(40, seed=2)
        assert samples
        for p, label in samples:
            assert label == "disk"
            assert np.linalg.norm(p) == pytest.approx(2.0, abs=1e-9)


class TestInfiniteValuesInJson:
    def test_infinite_radius_report_roundtrips(self, tmp_path):
        out = tmp_path / "halfplane.json"
        scenes = os.path.join(os.path.dirname(__file__), "..", "scenes")
        code = main([
            "check", os.path.join(scenes, "halfplane.scene"),
            "--samples", "20", "--json-report", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        required = {rec["required"] for rec in payload["report"]["records"]}
        assert required == {"inf"}


class TestHalfplaneTiltedNormals:
    def test_rotated_halfplane_cone_is_exact(self):
        # A half-plane at an angle: the sampled cone at any boundary point is
        # exactly the rotated normal.
        angle = 0.6
        n = np.array([math.sin(angle), math.cos(angle)])
        desc = ClosedSetDesc(HalfSpace(n, 0.0, label="tilted"), box=((-6, -6), (6, 6)))
        from extsphere.proximal import sample_unit_normals

        base = np.array([math.cos(angle), -math.sin(angle)]) * 1.3
        cone = sample_unit_normals(desc, base, density=720, rho_max=50.0)
        assert len(cone) == 1
        assert np.allclose(cone.directions[0], n, atol=1e-9)
        assert cone.realizations[0] == math.inf
