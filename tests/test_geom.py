import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extsphere.geom import (
    INF,
    Ball,
    GeometryError,
    IntervalSet,
    as_vec,
    bisect,
    ext_min,
    normalized,
    sphere_line_roots,
    unit,
    unit_direction_grid,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestSphereLineRoots:
    def test_collinear_tangency_arithmetic(self):
        assert sphere_line_roots((0, 0), (1, 0), (2, 0), 1.0) == pytest.approx((1.0, 3.0))

    def test_line_misses_sphere(self):
        assert sphere_line_roots((0, 0), (0, 1), (3, 0), 1.0) is None

    def test_tangent_line_counts_as_absent(self):
        assert sphere_line_roots((0, 0), (1, 0), (1, 1), 1.0) is None

    def test_rejects_non_unit_direction(self):
        with pytest.raises(GeometryError):
            sphere_line_roots((0, 0), (2, 0), (2, 0), 1.0)

    @given(
        x=st.tuples(finite, finite),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        center=st.tuples(finite, finite),
        eps=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_roots_bracket_the_inside_interval(self, x, angle, center, eps):
        xi = np.array([math.cos(angle), math.sin(angle)])
        roots = sphere_line_roots(x, xi, center, eps)
        x = np.asarray(x, dtype=float)
        center = np.asarray(center, dtype=float)
        if roots is None:
            return
        t1, t2 = roots
        assert t1 <= t2
        # Inside strictly between the roots, outside beyond them.
        for t in np.linspace(t1, t2, 102)[1:-1]:
            assert np.linalg.norm(x + t * xi - center) < eps
        for t in (t1 - 0.1 * (t2 - t1) - 1e-6, t2 + 0.1 * (t2 - t1) + 1e-6):
            assert np.linalg.norm(x + t * xi - center) >= eps - 1e-9
        # Product of roots identity.
        w = x - center
        assert t1 * t2 == pytest.approx(float(w @ w) - eps * eps, abs=1e-9)


class TestExtMin:
    def test_inf_is_top(self):
        assert ext_min(INF, 0.5) == 0.5
        assert ext_min(INF, INF) == INF
        assert ext_min(0.25, 0.5) == 0.25

    @given(a=st.floats(min_value=0, max_value=1e12), b=st.floats(min_value=0, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_commutative_and_bounded(self, a, b):
        assert ext_min(a, b) == ext_min(b, a) <= a

    def test_rejects_negative(self):
        with pytest.raises(GeometryError):
            ext_min(-1.0, 2.0)


class TestVectors:
    def test_unit_accepts_near_unit_and_renormalizes(self):
        v = unit(np.array([1.0 + 5e-7, 0.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_unit_rejects_far_from_unit(self):
        with pytest.raises(GeometryError):
            unit(np.array([1.5, 0.0]))

    def test_as_vec_rejects_bad_dims(self):
        with pytest.raises(GeometryError):
            as_vec([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(GeometryError):
            as_vec([math.nan, 0.0])

    def test_normalized(self):
        assert np.allclose(normalized([0, 3]), [0, 1])

    def test_direction_grid_contains_axes(self):
        grid = unit_direction_grid(2, 720)
        assert grid.shape == (720, 2)
        for axis in ([1, 0], [0, 1], [-1, 0], [0, -1]):
            assert np.min(np.linalg.norm(grid - np.asarray(axis), axis=1)) < 1e-12
        grid3 = unit_direction_grid(3, 100)
        assert grid3.shape == (106, 3)
        assert np.allclose(np.linalg.norm(grid3, axis=1), 1.0)


class TestBallSegment:
    def test_ball_membership_open_vs_closed(self):
        closed = Ball((0, 0), 1.0, closed=True)
        open_ball = Ball((0, 0), 1.0, closed=False)
        assert closed.contains_point((1, 0))
        assert not open_ball.contains_point((1, 0))

    def test_ball_rejects_bad_radius(self):
        with pytest.raises(GeometryError):
            Ball((0, 0), 0.0)
        with pytest.raises(GeometryError):
            Ball((0, 0), math.inf)


class TestIntervalSet:
    def test_merge_and_first_entry(self):
        spans = IntervalSet.merged([(3.0, 4.0), (0.0, 0.0), (1.0, 2.0)])
        assert spans.spans == [(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)]
        assert spans.first_entry_after(1e-12) == 1.0
        assert spans.first_point_at_or_after(0.0) == 0.0
        assert spans.first_point_at_or_after(2.5) == 3.0

    def test_intersection(self):
        a = IntervalSet([(0.0, 2.0), (5.0, INF)])
        b = IntervalSet([(1.0, 6.0)])
        assert a.intersect(b).spans == [(1.0, 2.0), (5.0, 6.0)]

    def test_straddling_interval_reports_floor(self):
        spans = IntervalSet([(0.0, 3.0)])
        assert spans.first_entry_after(1e-9) == 1e-9


class TestBisect:
    def test_float_bracket_halves_to_width(self):
        lo, hi = bisect(lambda t: t * t <= 2.0, 0.0, 2.0, width=1e-12)
        assert float(lo) <= math.sqrt(2.0) <= float(hi)
        assert float(hi - lo) <= 1e-12
        # Three halvings of [0, 1] towards a flip beyond 1.
        lo, hi = bisect(lambda t: True, 0.0, 1.0, steps=3)
        assert (float(lo), float(hi)) == (0.875, 1.0)

    def test_point_pair_halves_the_segment(self):
        inside, outside = bisect(
            lambda p: np.linalg.norm(p) <= 1.0, np.zeros(2), np.array([3.0, 4.0]), steps=60
        )
        assert np.linalg.norm(inside) <= 1.0 < np.linalg.norm(outside)
        assert np.allclose(inside, [0.6, 0.8], atol=1e-12)

    def test_point_brackets_halve_row_by_row(self):
        # Two segments in lockstep, one flag per row; each row ends where
        # its own one-segment bisection ends, bit for bit.
        radii = np.array([1.0, 2.0])
        ends = np.array([[3.0, 4.0], [0.0, 5.0]])
        lo, hi = bisect(
            lambda P: np.linalg.norm(P, axis=1) <= radii, np.zeros((2, 2)), ends, steps=60
        )
        for k in range(2):
            alone = bisect(lambda p: np.linalg.norm(p) <= radii[k], np.zeros(2), ends[k], steps=60)
            assert np.array_equal(lo[k], alone[0]) and np.array_equal(hi[k], alone[1])
        assert np.allclose(lo, [[0.6, 0.8], [0.0, 2.0]], atol=1e-12)

    def test_mixed_widths_freeze_row_by_row(self):
        # Brackets of different starts and widths in lockstep: each freezes
        # once its own gap is at most its own width, so every row ends where
        # its scalar run ends, bit for bit, while the others halve on.
        rng = np.random.default_rng(5)
        lo0 = rng.uniform(-3.0, 0.0, size=12)
        hi0 = lo0 + rng.uniform(0.1, 8.0, size=12)
        roots = lo0 + rng.uniform(0.0, 1.0, size=12) * (hi0 - lo0)
        widths = 10.0 ** rng.uniform(-14.0, -1.0, size=12)
        lo, hi = bisect(lambda t: t <= roots, lo0, hi0, width=widths)
        for k in range(12):
            alone = bisect(lambda t: t <= roots[k], float(lo0[k]), float(hi0[k]),
                           width=float(widths[k]))
            assert (lo[k], hi[k]) == alone, k
            assert hi[k] - lo[k] <= widths[k]

    def test_lockstep_brackets_flip_at_their_own_roots(self):
        roots = np.array([0.25, 0.5, 3.0])
        lo, hi = bisect(lambda t: t <= roots, np.zeros(3), np.full(3, 4.0), width=1e-9)
        assert np.all(lo <= roots) and np.all(roots <= hi)
        assert float(np.max(hi - lo)) <= 1e-9
