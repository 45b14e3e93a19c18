import gc
import math
import weakref

import numpy as np
import pytest

from extsphere.geom import GeometryError
from extsphere.sets import (
    AffineSubspace,
    BallComplement,
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    HalfSpace,
    Intersection,
    SetError,
    Slab,
    Union,
)
from extsphere.proximal import directional_distance, directional_distance_marched

from conftest import make_ball, make_lineplane, make_polydisk, make_strip


class TestMembership:
    def test_halfspace(self, halfplane):
        assert halfplane.desc.contains((3, -1))

    def test_union_gap(self, strip):
        assert not strip.desc.contains((0, 1))
        assert strip.desc.contains((0, 0)) and strip.desc.contains((0, 2))

    def test_point_set(self, pointset):
        assert pointset.desc.contains((0, 0))
        assert not pointset.desc.contains((0, 1e-6))


class TestDistance:
    def test_symmetric_midpoint(self, strip):
        assert strip.desc.distance((0, 1)) == pytest.approx(1.0)

    def test_ball(self, ball):
        assert ball.desc.distance((2, 0)) == pytest.approx(1.0)

    def test_ball_complement_center(self, ballcomplement):
        assert ballcomplement.desc.distance((0, 0)) == pytest.approx(1.0)


class TestProjection:
    def test_two_sided_projection(self, strip):
        proj = strip.desc.project((0, 1))
        pts = sorted(tuple(np.round(p, 9)) for p in proj.points)
        assert pts == [(0.0, 0.0), (0.0, 2.0)]
        assert proj.distance == pytest.approx(1.0)
        assert set(l for labs in proj.labels for l in labs) == {"bottom", "top"}

    def test_lineplane_midlevel_projection(self, lineplane):
        # The equidistant level between the line and the half-plane projects
        # onto both components.
        for x0 in (-1.3, 0.0, 2.5):
            proj = lineplane.desc.project((x0, 2))
            pts = sorted(tuple(np.round(p, 6)) for p in proj.points)
            assert pts == [(x0, 0.0), (x0, 4.0)]

    def test_ball_projection(self, ball):
        proj = ball.desc.project((0, 3))
        assert len(proj.points) == 1
        assert tuple(np.round(proj.points[0], 12)) == (0.0, 1.0)

    def test_projection_points_lie_in_set(self, strip, lineplane, ballcomplement):
        rng = np.random.default_rng(5)
        for fix in (strip, lineplane, ballcomplement):
            desc = fix.desc
            for x in desc.sample_exterior(50, seed=3):
                proj = desc.project(x)
                assert proj.points
                for p in proj.points:
                    assert desc.contains(p)
                    assert np.linalg.norm(x - p) == pytest.approx(
                        proj.distance, abs=desc.cluster_tol
                    )


class TestInterior:
    def test_halfspace_interior(self, halfplane):
        assert halfplane.desc.interior_contains((0, -1))
        assert not halfplane.desc.interior_contains((0, 0))

    def test_thin_leaves_have_empty_interior(self, lineplane, pointset):
        assert not lineplane.desc.interior_contains((0, 0))
        assert not pointset.desc.interior_contains((0, 0))

    def test_halfplane_component_interior(self, lineplane):
        assert lineplane.desc.interior_contains((0, 5))

    def test_interior_implies_membership(self, strip, lineplane, ball):
        rng = np.random.default_rng(2)
        for fix in (strip, lineplane, ball):
            lo, hi = fix.desc.box
            pts = rng.uniform(lo, hi, size=(300, fix.desc.dim))
            inside = fix.desc.interior_many(pts)
            member = fix.desc.contains_many(pts)
            assert not np.any(inside & ~member)


class TestBoundaryOfInterior:
    def test_strip_boundary_is_boundary_of_interior(self, strip):
        assert strip.desc.in_boundary_of_interior((0, 2))
        assert strip.desc.in_boundary_of_interior((1.5, 0))

    def test_line_component_is_not(self, lineplane):
        assert not lineplane.desc.in_boundary_of_interior((0, 0))
        assert lineplane.desc.in_boundary_of_interior((0, 4))

    def test_point_set_is_not(self, pointset):
        assert not pointset.desc.in_boundary_of_interior((0, 0))

    def test_rejects_non_boundary_points(self, strip):
        with pytest.raises(GeometryError):
            strip.desc.in_boundary_of_interior((0, 1))

    def test_sampling_route_agrees(self, strip, lineplane):
        for fix, pts in ((strip, [(0, 2), (1, 0)]), (lineplane, [(0, 0), (2, 4)])):
            for a in pts:
                analytic = fix.desc.in_boundary_of_interior(a)
                sampled = fix.desc.in_boundary_of_interior(
                    a, method="sampling", samples_per_eps=1000, seed=4
                )
                assert analytic == sampled


class TestBoundarySampling:
    def test_ball_boundary_norms(self, ball):
        samples = ball.desc.sample_boundary(4, seed=7)
        assert len(samples) == 4
        for p, label in samples:
            assert label == "disk"
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-9)

    def test_strip_labels_match_lines(self, strip):
        for p, label in strip.desc.sample_boundary(10, seed=1):
            assert label in ("bottom", "top")
            assert p[1] == pytest.approx(0.0 if label == "bottom" else 2.0, abs=1e-9)

    def test_lineplane_labels_partition(self, lineplane):
        labels = {label for _, label in lineplane.desc.sample_boundary(10, seed=1)}
        assert labels == {"line", "plane"}

    def test_samples_near_complement(self, strip):
        oracle = strip.desc.oracle
        for p, _ in strip.desc.sample_boundary(20, seed=9):
            assert strip.desc.contains(p)
            assert oracle.complement_distance(p) <= 2 * oracle.h

    def test_deterministic_under_seed(self, strip):
        a = strip.desc.sample_boundary(12, seed=42)
        b = strip.desc.sample_boundary(12, seed=42)
        assert all(np.array_equal(p, q) and l1 == l2 for (p, l1), (q, l2) in zip(a, b))

    def test_points_are_distinct(self, pointset, strip):
        # A finite point set offers each of its points once.
        assert [tuple(p) for p, _ in pointset.desc.sample_boundary(60, seed=7)] == [(0.0, 0.0)]
        samples = strip.desc.sample_boundary(40, seed=7)
        assert len({tuple(p) for p, _ in samples}) == len(samples) == 40


class TestGridOracle:
    @pytest.mark.parametrize("maker", [make_strip, make_lineplane, make_ball, make_polydisk])
    def test_analytic_distance_matches_grid(self, maker):
        fix = maker()
        desc = fix.desc
        oracle = desc.oracle
        rng = np.random.default_rng(17)
        lo, hi = desc.box
        pts = rng.uniform(lo, hi, size=(1000, desc.dim))
        analytic = desc.distance_many(pts)
        brute = oracle.distance_many(pts)
        assert np.all(np.abs(brute - analytic) <= 2 * oracle.h)

    def test_intersection_distance_certified_by_grid(self):
        quad = ClosedSetDesc(
            Intersection([HalfSpace((1, 0), 0.0, label="hx"), HalfSpace((0, 1), 0.0, label="hy")]),
            box=((-5, -5), (5, 5)),
        )
        oracle = quad.oracle
        rng = np.random.default_rng(19)
        lo, hi = quad.box
        pts = rng.uniform(lo, hi, size=(1000, 2))
        analytic = quad.distance_many(pts)
        brute = oracle.distance_many(pts)
        assert np.all(np.abs(brute - analytic) <= 2 * oracle.h)

    def test_dropped_description_frees_its_oracle(self):
        # Grids are the largest arrays a scene holds; freeing them must not
        # wait for a collection.
        desc = make_ball().desc
        assert desc.oracle.cloud.size
        ref = weakref.ref(desc)
        gc.disable()
        try:
            del desc
            assert ref() is None
        finally:
            gc.enable()

    def test_membership_bitmap_consistent(self, strip):
        oracle = strip.desc.oracle
        idx = np.random.default_rng(0).choice(len(oracle.grid_points), 500, replace=False)
        pts = oracle.grid_points[idx]
        assert np.array_equal(oracle.membership[idx], strip.desc.contains_many(pts))

    def test_interior_has_positive_complement_distance(self, strip):
        oracle = strip.desc.oracle
        for x in [(0, -1.0), (0, 3.0), (2, -0.5)]:
            assert strip.desc.interior_contains(x)
            assert oracle.complement_distance(x) > 0.4 * oracle.h


class TestDistanceContainsConsistency:
    @pytest.mark.parametrize("maker", [make_strip, make_lineplane, make_ball])
    def test_zero_distance_iff_member(self, maker):
        fix = maker()
        desc = fix.desc
        rng = np.random.default_rng(3)
        lo, hi = desc.box
        pts = rng.uniform(lo, hi, size=(500, desc.dim))
        dist = desc.distance_many(pts)
        member = desc.contains_many(pts)
        tol = 1e-9 * desc.diameter
        assert np.all((dist <= tol) == member)


class TestIntersection:
    def test_quadrant_distance_and_projection(self):
        quad = ClosedSetDesc(
            Intersection([HalfSpace((1, 0), 0.0, label="hx"), HalfSpace((0, 1), 0.0, label="hy")]),
            box=((-5, -5), (5, 5)),
        )
        assert quad.contains((-1, -1))
        assert quad.distance((1, 1)) == pytest.approx(math.sqrt(2))
        proj = quad.project((1, 1))
        assert len(proj.points) == 1
        assert np.allclose(proj.points[0], [0, 0], atol=1e-9)
        assert quad.distance((-3, 2)) == pytest.approx(2.0)

    def test_ball_halfspace_intersection(self):
        lens = ClosedSetDesc(
            Intersection([
                ClosedBall((0, 0), 2.0, label="disk"),
                HalfSpace((0, 1), 0.0, label="lower"),
            ]),
            box=((-4, -4), (4, 4)),
        )
        proj = lens.project((0, 1))
        assert np.allclose(proj.points[0], [0, 0], atol=1e-9)
        assert lens.distance((3, -0.0)) == pytest.approx(1.0)

    def test_projection_exactness_flags(self, ballcomplement, polydisk):
        # Every sphere point is closest to the centre; the pick is not certified.
        assert ballcomplement.desc.project((0, 0)).exactness == "approximate"
        assert ballcomplement.desc.project((0.3, 0)).exactness == "exact"
        assert polydisk.desc.project((0.8, 0.8)).exactness == "exact"

    def test_nested_intersection_rejected(self):
        inner = Intersection([HalfSpace((1, 0), 0.0, label="a"), HalfSpace((0, 1), 0.0, label="b")])
        with pytest.raises(SetError):
            ClosedSetDesc(
                Intersection([inner, HalfSpace((1, 1), 1.0, label="c")]), box=((-4, -4), (4, 4))
            )

    def test_convexity_of_node_trees(self, ball, strip, polydisk):
        quad = ClosedSetDesc(
            Intersection([HalfSpace((1, 0), 0.0, label="hx"), HalfSpace((0, 1), 0.0, label="hy")]),
            box=((-5, -5), (5, 5)),
        )
        assert ball.desc.is_convex() and quad.is_convex()
        assert not strip.desc.is_convex() and not polydisk.desc.is_convex()
        reg = polydisk.desc.closure_of_interior()
        assert isinstance(reg.root, Union) and not reg.is_convex()

    def test_nonconvex_children_rejected(self):
        with pytest.raises(SetError):
            ClosedSetDesc(
                Intersection([
                    BallComplement((0, 0), 1.0, label="shell"),
                    HalfSpace((0, 1), 0.0, label="h"),
                ]),
                box=((-4, -4), (4, 4)),
            )


def _regular_polygon(k: int) -> tuple:
    """Regular k-gon of circumradius 1.4: (desc, vertices, facet normals)."""
    radius = 1.4
    ang = 2.0 * math.pi * np.arange(k) / k
    verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    mid = (2.0 * np.arange(k) + 1.0) * math.pi / k
    normals = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    offset = radius * math.cos(math.pi / k)
    desc = ClosedSetDesc(
        Intersection([HalfSpace(n, offset, label=f"f{i}") for i, n in enumerate(normals)]),
        box=((-6, -6), (6, 6)),
    )
    return desc, verts, normals


def _lens_2d():
    return Intersection([ClosedBall((0, 0), 2.0, label="disk"), HalfSpace((0.3, 1), 0.5, label="cut")])


def _two_disks():
    return Intersection([ClosedBall((-0.8, 0), 1.5, label="left"), ClosedBall((0.8, 0.2), 1.4, label="right")])


def _ball_slab():
    return Intersection([
        ClosedBall((0, 0, 0), 1.5, label="ball"), Slab((0.2, 0, 1), -0.5, 0.7, label="slab"),
    ])


def _two_balls_halfspace():
    return Intersection([
        ClosedBall((-0.7, 0, 0), 1.5, label="left"),
        ClosedBall((0.7, 0.1, 0), 1.4, label="right"),
        HalfSpace((0, 1, 0.2), 0.4, label="cut"),
    ])


def _line_ball():
    return Intersection([
        AffineSubspace((0, 0.3, 0.1), [(1, 1, 0.5)], label="line"),
        ClosedBall((0, 0, 0), 1.5, label="ball"),
    ])


def _cube():
    return Intersection([
        HalfSpace(n, 1.0, label=f"face{i}")
        for i, n in enumerate(np.concatenate([np.eye(3), -np.eye(3)]))
    ])


BOX_2D = ((-3, -3), (3, 3))
BOX_3D = ((-2.5, -2.5, -2.5), (2.5, 2.5, 2.5))


class TestExactIntersection:
    """The active-set projection against brute force and its own one-row calls."""

    @pytest.mark.parametrize("k", [5, 6])
    def test_facet_normal_probes_are_exact(self, k):
        # A facet point pushed out along its facet normal is exactly rho away.
        desc, verts, normals = _regular_polygon(k)
        for f in range(k):
            for t in np.arange(1, 10) / 10.0:
                a = (1.0 - t) * verts[f] + t * verts[(f + 1) % k]
                for rho in (1, 3, 10, 30, 60, 100):
                    x = a + rho * normals[f]
                    assert abs(desc.distance(x) - rho) <= 1e-9 * rho
                    assert desc.contains(desc.project(x).points[0])

    @pytest.mark.parametrize("make,box", [
        pytest.param(_lens_2d, BOX_2D, id="disk-halfplane"),
        pytest.param(_two_disks, BOX_2D, id="disk-disk"),
        pytest.param(_ball_slab, BOX_3D, id="ball-slab"),
        pytest.param(_two_balls_halfspace, BOX_3D, id="ball-ball-halfspace"),
        pytest.param(_line_ball, BOX_3D, id="line-ball"),
        pytest.param(_cube, BOX_3D, id="cube"),
    ])
    def test_candidate_kinds(self, make, box):
        node = make()
        desc = ClosedSetDesc(node, box=box)
        oracle = desc.oracle
        lo, hi = desc.box
        pts = np.random.default_rng(29).uniform(lo, hi, size=(1000, desc.dim))
        dist = desc.distance_many(pts)
        assert np.all(np.abs(oracle.distance_many(pts) - dist) <= 2 * oracle.h)
        for x in pts:
            proj = desc.project(x)
            assert proj.exactness == "exact"
            assert all(desc.contains(p) for p in proj.points)
        tol = desc.membership_tol
        rows = np.concatenate([node.distance_many(x[None, :], tol) for x in pts])
        for m in (1, 2, 7, 1000):
            assert np.array_equal(node.distance_many(pts[:m], tol), rows[:m])
        # Large batches are worked on in chunks of rows (several for the cube).
        assert np.array_equal(node.distance_many(np.tile(pts, (5, 1)), tol), np.tile(rows, 5))

    def test_point_and_line_flat(self):
        # Equality flats only: a point on a line is its own closest point.
        node = Intersection([
            FinitePointSet([(1.0, 2.0)], label="dot"),
            AffineSubspace((0, 1), [(1, 1)], label="diag"),
        ])
        desc = ClosedSetDesc(node, box=((-4, -4), (4, 4)))
        proj = desc.project((4.0, -2.0))
        assert proj.exactness == "exact"
        assert proj.distance == pytest.approx(5.0)
        assert np.allclose(proj.points[0], (1.0, 2.0))

    def test_no_feasible_candidate_is_approximate(self):
        # Disjoint parallel lines: the intersection is empty, so no candidate
        # is feasible and the least-violating one must not read as exact.
        desc = ClosedSetDesc(
            Intersection([
                AffineSubspace((0, 0), [(1, 0)], label="low"),
                AffineSubspace((0, 1), [(1, 0)], label="high"),
            ]),
            box=((-4, -4), (4, 4)),
        )
        assert desc.project((0.5, 3.0)).exactness == "approximate"


class TestSceneValidation:
    def test_touching_components_rejected(self):
        touching = ClosedSetDesc(
            Union([
                HalfSpace((0, 1), 0.0, label="lower"),
                HalfSpace((0, -1), 0.0, label="upper"),
            ]),
            box=((-4, -4), (4, 4)),
        )
        with pytest.raises(SetError):
            touching.validate()

    def test_disjoint_components_pass(self, strip):
        strip.desc.validate()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SetError):
            ClosedSetDesc(
                Union([HalfSpace((0, 1), 0.0, label="h"), HalfSpace((0, -1), -2.0, label="h")]),
                box=((-4, -4), (4, 4)),
            )


class TestRayIntervals:
    def test_matches_marched_reference_on_full_dim_sets(self, strip, ball, polydisk):
        rng = np.random.default_rng(23)
        for fix in (strip, ball, polydisk):
            desc = fix.desc
            for _ in range(40):
                x = desc.sample_exterior(1, seed=int(rng.integers(2**31)))[0]
                angle = rng.uniform(0, 2 * math.pi)
                zeta = np.array([math.cos(angle), math.sin(angle)])
                exact = directional_distance(desc, x, zeta, t_max=12.0)
                marched = directional_distance_marched(desc, x, zeta, t_max=12.0)
                if math.isinf(exact) or math.isinf(marched):
                    assert exact == marched
                else:
                    assert exact == pytest.approx(marched, abs=2e-9 + desc.oracle.h * 0)

    def test_thin_component_is_hit_exactly(self, lineplane):
        # Marching cannot see the line; the interval route must.
        assert directional_distance(lineplane.desc, (0.3, 1), (0, -1), 10.0) == pytest.approx(1.0)

    def test_rotated_line_hit_in_general_position(self):
        # Regression: the residual of the closest approach must be computed
        # in vector form, or cancellation noise swallows oblique hits.
        c, s = math.cos(0.7), math.sin(0.7)
        tilted = ClosedSetDesc(
            AffineSubspace((1.3, -0.4), [(c, s)], label="tilt"), box=((-8, -8), (8, 8))
        )
        x = np.array([0.33, 2.17])
        d = np.array([0.2, -0.98])
        d = d / np.linalg.norm(d)
        p, ld = np.array([1.3, -0.4]), np.array([c, s])
        expected = ((p[0] - x[0]) * ld[1] - (p[1] - x[1]) * ld[0]) / (d[0] * ld[1] - d[1] * ld[0])
        assert directional_distance(tilted, x, d, 10.0) == pytest.approx(expected, abs=1e-9)


class TestDistanceProperties:
    from hypothesis import given, settings, strategies as st

    coord = st.floats(min_value=-5.5, max_value=5.5, allow_nan=False)

    @given(p=st.tuples(coord, coord), q=st.tuples(coord, coord))
    @settings(max_examples=150, deadline=None)
    def test_distance_is_one_lipschitz(self, strip, p, q):
        # |d(p) - d(q)| <= |p - q| for any closed set.
        dp = strip.desc.distance(p)
        dq = strip.desc.distance(q)
        gap = float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        assert abs(dp - dq) <= gap + 1e-9

    @given(p=st.tuples(coord, coord))
    @settings(max_examples=100, deadline=None)
    def test_projection_is_idempotent(self, lineplane, p):
        proj = lineplane.desc.project(p)
        for q in proj.points:
            again = lineplane.desc.project(q)
            assert again.distance <= lineplane.desc.cluster_tol
            assert np.linalg.norm(again.points[0] - q) <= lineplane.desc.cluster_tol


class TestSlabAndAffine:
    def test_slab_queries(self):
        slab = ClosedSetDesc(Slab((0, 1), -1.0, 1.0, label="band"), box=((-4, -4), (4, 4)))
        assert slab.contains((0, 0.5)) and not slab.contains((0, 1.5))
        assert slab.distance((0, 3)) == pytest.approx(2.0)
        assert slab.interior_contains((0, 0.0)) and not slab.interior_contains((0, 1.0))

    def test_line_in_3d(self):
        line = ClosedSetDesc(
            AffineSubspace((0, 0, 0), [(1, 0, 0)], label="axis"), box=((-3, -3, -3), (3, 3, 3))
        )
        assert line.contains((2, 0, 0))
        assert line.distance((0, 3, 4)) == pytest.approx(5.0)
        proj = line.project((1, 1, 0))
        assert np.allclose(proj.points[0], [1, 0, 0])
