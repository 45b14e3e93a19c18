"""Dimension-generic behavior: the same machinery in three dimensions."""

import numpy as np
import pytest

from extsphere.conditions import check_extended_condition, cover_radius
from extsphere.cover import construct_witness
from extsphere.geom import INF
from extsphere.proximal import (
    RadiusField,
    directional_distance,
    realization_radius,
    sample_unit_normals,
)
from extsphere.scene import parse_scene
from extsphere.sconvex import equivalence_harness, is_s_convex, normal_segments
from extsphere.sets import AffineSubspace, ClosedBall, ClosedSetDesc, HalfSpace, Union


# The cube-plus-line scene of the polytope-check workload at seed 7.  Its
# one line sample has a normal circle with no grid direction within the
# margin noise of it.
CUBE_LINE = """
[scene]
name = cube-line
dim = 3
bbox = (-5.0, -5.0, -5.0) (5.0, 5.0, 5.0)
combine = union

[set]
other = line(point=(0.4103631953663058, -0.9128625449595387, -1.0550312336643033), direction=(0.6551727168610568, -0.5129104870075195, 0.5546814792280436))
poly = intersection(halfspace(normal=(0.14686023675512527, -0.6337371801072775, -0.759479596440816), offset=0.6900556666711175), halfspace(normal=(0.6551727168610568, -0.5129104870075195, 0.5546814792280436), offset=0.9318692567933446), halfspace(normal=(-0.7410673261864471, -0.579050963963782, 0.339881154510639), offset=0.6459019469272103), halfspace(normal=(-0.14686023675512527, 0.6337371801072775, 0.759479596440816), offset=0.8699443333288825), halfspace(normal=(-0.6551727168610568, 0.5129104870075195, -0.5546814792280436), offset=0.6281307432066554), halfspace(normal=(0.7410673261864471, 0.579050963963782, -0.339881154510639), offset=0.9140980530727898))

[radius]
poly = 5.0
other = 5.0

[samples]
seed = 7
boundary_samples = 10
rho_max = 100
delta_list = 1 10
"""


@pytest.fixture(scope="module")
def slab3d():
    """Two parallel half-spaces in 3D with a gap of width 2."""
    desc = ClosedSetDesc(
        Union([
            HalfSpace((0, 0, 1), 0.0, label="bottom"),
            HalfSpace((0, 0, -1), -2.0, label="top"),
        ]),
        box=((-4, -4, -3), (4, 4, 5)),
        name="slab3d",
    )
    return desc, RadiusField.from_sources({"bottom": 0.5, "top": 1})


@pytest.fixture(scope="module")
def ball3d():
    desc = ClosedSetDesc(ClosedBall((0, 0, 0), 1.0, label="sphere"), box=((-3, -3, -3), (3, 3, 3)))
    return desc, RadiusField.from_sources({"sphere": 4})


def test_cover_radius_and_witnesses(slab3d):
    desc, rf = slab3d
    assert cover_radius(desc, rf, (0, 0, 1)) == pytest.approx(0.25, abs=1e-9)
    w = construct_witness(desc, rf, (0, 0, 1.75))
    assert w.ok and w.ball.radius == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(w.ball.center, [0, 0, 1.25], atol=1e-9)


def test_cone_sampling_finds_the_axis(slab3d):
    desc, _ = slab3d
    cone = sample_unit_normals(desc, (0.5, -0.3, 2.0), density=500, rho_max=50.0)
    assert len(cone) == 1
    assert np.allclose(cone.directions[0], [0, 0, -1], atol=1e-9)
    assert cone.realizations[0] == pytest.approx(1.0, abs=1e-6)


def test_ball_realization_and_check(ball3d):
    desc, rf = ball3d
    a = np.array([0.0, 1.0, 0.0])
    assert realization_radius(desc, a, (0, 1, 0), rho_max=40.0) == INF
    report = check_extended_condition(desc, rf, boundary_samples=30, density=400, seed=3, rho_max=40.0)
    assert report.verdict == "holds"


def test_directional_distance_hits_a_line_in_space():
    desc = ClosedSetDesc(
        AffineSubspace((0, 0, 0), [(1, 0, 0)], label="axis"),
        box=((-3, -3, -3), (3, 3, 3)),
    )
    assert directional_distance(desc, (0, 2, 0), (0, -1, 0), 10.0) == pytest.approx(2.0)
    assert directional_distance(desc, (0, 2, 0), (0, 1, 0), 10.0) == INF


def test_line_sample_is_tested():
    # The cube lies 0.75 from the line, so the line's normals toward it are
    # realized below the required radius 5: the forall check must test the
    # line sample and find the violation there, not hold vacuously.
    scene = parse_scene(CUBE_LINE, name="cube-line")
    report = check_extended_condition(
        scene.desc, scene.radius_field, boundary_samples=10, seed=7, rho_max=100.0
    )
    (line,) = [rec for rec in report.records if rec.label == "other"]
    assert line.normals_tested > 0
    assert not line.ok and line.certificate is not None


def test_sconvexity_in_space(ball3d):
    desc, _ = ball3d
    report = is_s_convex(
        desc, lambda P: np.ones(len(P), dtype=bool),
        normal_segments(desc, 30, 300, 3, 40.0), 3,
    )
    assert report.verdict == "holds"


def test_touching_spheres_cross_in_space():
    desc = ClosedSetDesc(
        Union([
            ClosedBall((-1, 0, 0), 1.0, label="west"),
            ClosedBall((1, 0, 0), 1.0, label="east"),
        ]),
        box=((-3.5, -2.5, -2.5), (3.5, 2.5, 2.5)),
    )
    report = is_s_convex(
        desc, lambda P: np.ones(len(P), dtype=bool),
        normal_segments(desc, 60, 300, 3, 30.0), 3,
    )
    assert report.verdict == "fails"
    assert abs(report.violations[0].point[0]) < 0.7


@pytest.mark.xfail(strict=True, reason=(
    "known inconsistency: i=fails ii=holds iii=holds; the S-convexity sample "
    "of verdict ii misses the realization deficit that the condition check "
    "confirms on the line"
))
def test_cube_line_harness_is_consistent():
    scene = parse_scene(CUBE_LINE, name="cube-line")
    spec = scene.samples
    report = equivalence_harness(
        scene.desc, scene.radius_field, boundary_samples=spec.boundary_samples,
        density=spec.density, seed=spec.seed, rho_max=spec.rho_max,
    )
    assert report.consistent is True
