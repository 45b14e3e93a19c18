import math
import os

import numpy as np
import pytest

from extsphere.geom import INF, GeometryError, normalized
from extsphere.proximal import (
    BATCH_ROWS,
    RHO_MIN,
    NotRealizedError,
    RadiusField,
    _batches,
    _direction_grid,
    capped_realization_radius,
    default_density,
    directional_distance,
    first_boundary_return,
    is_proximal_normal,
    is_realized_by_sphere,
    realization_radius,
    sample_unit_normals,
    sample_unit_normals_many,
)
from extsphere.scene import load_scene, parse_scene
from extsphere.sets import (
    LINE_NORMAL_SAMPLES, AffineSubspace, ClosedBall, ClosedSetDesc, HalfSpace, Intersection, Union,
    owning_leaves,
)
from conftest import make_halfplane
from test_golden import CUBELINE, POLYDISK, SCENES

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

    def test_local_draws_take_one_membership_call(self, ballcomplement, monkeypatch):
        desc = ballcomplement.desc
        _ = desc.oracle  # built outside the count
        sizes = []
        contains_many = ClosedSetDesc.contains_many

        def counted(self, P):
            sizes.append(len(P))
            return contains_many(self, P)

        monkeypatch.setattr(ClosedSetDesc, "contains_many", counted)
        desc.sample_boundary(256, seed=0)
        sampling = len(sizes)
        sizes.clear()
        assert is_proximal_normal(desc, (1, 0), (-1, 0), sigma=0.5, probes=512, seed=0)
        # on_boundary, the boundary pool, then all local draws at once:
        # 44 scales of 2 sphere neighbours (one tangent at (1, 0)) plus 39
        # chunks of 8 random draws.
        assert len(sizes) == 1 + sampling + 1
        assert sizes[-1] == 44 * 2 + 39 * 8


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


def _pentagon_vertex():
    """A pentagon of inradius 1 united with a small disk, and the vertex
    between its faces 0 and 1."""
    normals = np.array([
        (math.cos(2 * math.pi * (i + 0.3) / 5), math.sin(2 * math.pi * (i + 0.3) / 5)) for i in range(5)
    ])
    desc = ClosedSetDesc(
        Union([
            Intersection([HalfSpace(n, 1.0, label=f"face{i}") for i, n in enumerate(normals)]),
            ClosedBall((4, 4), 0.5, label="disk"),
        ]),
        box=((-6, -6), (6, 6)),
        name="pentagon",
    )
    return desc, np.linalg.solve(normals[:2], np.ones(2))


# Lines in 3D, each as (point, direction, half box side, a point on it).
# The second is the rail of the cube-plus-line scene of the polytope-check
# workload at seed 7, at its one boundary sample: no grid direction lies
# within the margin noise of the normal circle there.  The third is the rail
# of the golden cubeline scene.
LINES_3D = [
    ((0.1, 0.2, 0.3), (0.3, 0.5, 0.8), 8.0, (0.1, 0.2, 0.3)),
    (
        (0.4103631953663058, -0.9128625449595387, -1.0550312336643033),
        (0.6551727168610568, -0.5129104870075195, 0.5546814792280436),
        5.0,
        (-2.4287845835866646, 1.309801238975026, -3.458706858805791),
    ),
    ((0, 0, 2), (1, 1, 0), 3.0, (0.4, 0.4, 2)),
]


def _line_point(point, direction, half, a):
    """A line in 3D, a point on it and the line's unit direction."""
    desc = ClosedSetDesc(
        AffineSubspace(point, [direction], label="line"),
        box=((-half,) * 3, (half,) * 3),
        name="line3d",
    )
    return desc, np.asarray(a, dtype=float), normalized(np.asarray(direction, dtype=float))


def _golden_scene(name):
    texts = {"polydisk": POLYDISK, "cubeline": CUBELINE}
    if name in texts:
        return parse_scene(texts[name], name=name)
    return load_scene(os.path.join(SCENES, f"{name}.scene"))


def _assert_rows_are_sampled_directions(desc, a, density, extra=()):
    """Every cone row equals, bit for bit, a row of the direction grid, a
    normal of a leaf owning a, or a (normalized) extra direction."""
    cone = sample_unit_normals(desc, a, density=density, extra_directions=extra, with_realizations=False)
    grid, _ = _direction_grid(desc.dim, density)
    owners = owning_leaves(desc.leaves, a, desc.cluster_tol)
    leaf_normals = [d for leaf in owners for d in leaf.normal_directions(a)]
    candidates = leaf_normals + [normalized(d) for d in extra]
    sources = np.concatenate([grid, np.reshape(candidates, (-1, desc.dim))])
    for row in cone.directions:
        assert (sources == row).all(axis=1).any(), f"row {row.tolist()} at {a.tolist()} is not sampled"
    return cone


class TestConeRowsAreSampledDirections:
    @pytest.mark.parametrize("name", [
        "strip", "lineplane", "ball", "ballcomplement", "halfplane", "pointset", "polydisk", "cubeline",
    ])
    def test_golden_scene_boundary_samples(self, name):
        scene = _golden_scene(name)
        desc = scene.desc
        density = scene.samples.density or default_density(desc.dim)
        extra = [np.arange(1.0, desc.dim + 1.0)]
        for a, _ in desc.sample_boundary(8 if desc.dim == 2 else 4, seed=scene.samples.seed):
            _assert_rows_are_sampled_directions(desc, a, density)
            _assert_rows_are_sampled_directions(desc, a, density, extra)

    def test_pentagon_vertex(self):
        desc, vertex = _pentagon_vertex()
        cone = _assert_rows_are_sampled_directions(desc, vertex, 720)
        assert len(cone) > 0

    @pytest.mark.parametrize("line", LINES_3D)
    def test_line_point(self, line):
        desc, a, _ = _line_point(*line)
        cone = _assert_rows_are_sampled_directions(desc, a, default_density(3))
        assert len(cone) > 0


def _assert_batch_is_one_row_calls(desc, A, density):
    """sample_unit_normals_many on the rows of A equals, bit for bit, the
    one-row call at each row: with and without realizations, without extra
    directions and with one or two extra directions of its own per row
    (none on every third row)."""
    rng = np.random.default_rng(3)
    extras = [None if i % 3 == 2 else list(rng.normal(size=(i % 3 + 1, desc.dim))) for i in range(len(A))]
    for extra in (None, extras):
        for with_realizations in (True, False):
            cones = sample_unit_normals_many(desc, A, density, None, extra, with_realizations)
            assert len(cones) == len(A)
            for i, (a, cone) in enumerate(zip(A, cones)):
                one = sample_unit_normals(
                    desc, a, density, None, None if extra is None else extra[i], with_realizations
                )
                assert np.array_equal(cone.directions, one.directions), a
                assert np.array_equal(cone.realizations, one.realizations, equal_nan=True), a


class TestBatchedConesAreOneRowCones:
    """A batched cone call sweeps and bisects the rows of many base points
    at once and still gives each point the cone of its one-row call."""

    @pytest.mark.parametrize("name", [
        "strip", "lineplane", "ball", "ballcomplement", "halfplane", "pointset", "polydisk", "cubeline",
    ])
    def test_golden_scene_boundary_samples(self, name):
        scene = _golden_scene(name)
        desc = scene.desc
        density = scene.samples.density or default_density(desc.dim)
        # Enough samples for a sweep of more than BATCH_ROWS rows where the
        # scene offers them (pointset has three points).
        samples = desc.sample_boundary(24 if desc.dim == 2 else 10, seed=scene.samples.seed)
        A = np.asarray([a for a, _ in samples])
        sweep_batches = list(_batches([len(_direction_grid(desc.dim, density)[0])] * len(A)))
        assert len(sweep_batches) >= (1 if name == "pointset" else 2)
        _assert_batch_is_one_row_calls(desc, A, density)

    def test_pentagon_vertex(self):
        desc, vertex = _pentagon_vertex()
        A = np.asarray([vertex] + [a for a, _ in desc.sample_boundary(6, seed=2)])
        _assert_batch_is_one_row_calls(desc, A, 720)

    @pytest.mark.parametrize("line", LINES_3D)
    def test_line_point(self, line):
        desc, a, _ = _line_point(*line)
        A = np.asarray([a] + [p for p, _ in desc.sample_boundary(3, seed=2)])
        _assert_batch_is_one_row_calls(desc, A, default_density(3))

    def test_rows_are_not_classified_again(self, strip, monkeypatch):
        # The caller's classification of the rows decides; a second check
        # on another row count could overrule it at the tolerance edge.
        A = np.asarray([a for a, _ in strip.desc.sample_boundary(4, seed=1)])

        def refuse(P):
            raise AssertionError("cone call classified its rows")

        monkeypatch.setattr(strip.desc, "contains_many", refuse)
        monkeypatch.setattr(strip.desc, "interior_many", refuse)
        assert all(len(cone) for cone in sample_unit_normals_many(strip.desc, A, rho_max=100.0))

    def test_one_row_call_rejects_off_boundary_base(self, strip):
        with pytest.raises(GeometryError):
            sample_unit_normals(strip.desc, (0.0, 1.0))

    def test_batches_take_whole_points(self):
        # A batch never splits a point's rows and stays within BATCH_ROWS
        # unless one point alone exceeds it.
        counts = [700, 0, 9000, 9000, BATCH_ROWS + 5, 3, 1]
        parts = list(_batches(counts))
        assert parts == [slice(0, 3), slice(3, 4), slice(4, 5), slice(5, 7)]
        assert list(_batches([])) == []


class TestConeGeometry:
    def test_pentagon_vertex_rows_half_a_step_apart(self):
        desc, vertex = _pentagon_vertex()
        density = 720
        dirs = sample_unit_normals(desc, vertex, density=density, with_realizations=False).directions
        cosines = dirs @ dirs.T
        np.fill_diagonal(cosines, -1.0)
        closest = math.acos(min(1.0, float(cosines.max())))
        assert closest >= 0.5 * 2.0 * math.pi / density

    @pytest.mark.parametrize("line", LINES_3D)
    def test_line_point_cone_is_its_normal_circle(self, line):
        # A grid row at angle t off the normal circle has a RHO_MIN margin
        # of about -RHO_MIN * t^2 / 2, so a row within the noise band is
        # within sqrt(2 * margin_noise / RHO_MIN) of perpendicular.  The
        # line's own circle sample leaves no gap wider than its spacing.
        desc, a, axis = _line_point(*line)
        dirs = sample_unit_normals(desc, a, with_realizations=False).directions
        assert len(dirs) >= LINE_NORMAL_SAMPLES
        assert np.abs(dirs @ axis).max() <= math.sqrt(2.0 * desc.margin_noise / RHO_MIN)
        u = normalized(np.cross(axis, dirs[0]))
        angles = np.sort(np.arctan2(dirs @ u, dirs @ np.cross(u, axis)))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        assert gaps.max() <= 2.0 * math.pi / LINE_NORMAL_SAMPLES * (1.0 + 1e-9)


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
