import json
import math
import os

import numpy as np
import pytest

from extsphere.cli import _jsonable, main
from extsphere.cover import (
    ConstructionError,
    boundary_crossing,
    bridging_ball_radius,
    construct_witness,
    construct_witness_many,
    find_interior_point_near,
)
from extsphere.geom import GeometryError
from extsphere.scene import parse_scene
from extsphere.sets import ClosedSetDesc

from conftest import (
    SceneFix, make_ball, make_ballcomplement, make_halfplane, make_pointset, make_strip,
)

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


class TestBridgingBallRadius:
    def test_equal_reach_and_cover(self):
        assert bridging_ball_radius(1.0, 2.0, 2.0) == pytest.approx(2.0)

    def test_detached_cover(self):
        assert bridging_ball_radius(1.0, 3.0, 2.0) == pytest.approx(0.5)

    def test_degenerate_equal_radii(self):
        for rho in (0.3, 1.0, 2.5):
            assert bridging_ball_radius(rho, rho, rho) == pytest.approx(rho)

    def test_guard_violations(self):
        with pytest.raises(ConstructionError):
            bridging_ball_radius(1.0, 1.5, 2.0)  # separation below cover

    def test_bridging_ball_contained_in_union(self):
        # The ball tangent at x toward y with the bridging radius stays in
        # B(x; clearance) union B(y; cover): checked by dense sampling.
        rng = np.random.default_rng(77)
        for _ in range(100):
            clearance = rng.uniform(0.1, 2.0)
            cover = rng.uniform(1.001, 3.0) * clearance
            separation = rng.uniform(1.0, 3.0) * cover
            rho = bridging_ball_radius(clearance, separation, cover)
            x = rng.uniform(-3, 3, size=2)
            angle = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(angle), math.sin(angle)])
            y = x + separation * u
            center = x + rho * u
            raw = rng.normal(size=(10000, 2))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rho * np.sqrt(rng.random(10000))
            pts = center + dirs * radii[:, None]
            in_x = np.linalg.norm(pts - x, axis=1) <= clearance + 1e-7
            in_y = np.linalg.norm(pts - y, axis=1) <= cover + 1e-7
            assert np.all(in_x | in_y)

    def test_near_ball_shell_triangle_bound(self):
        # For separations strictly between |target - cover| and cover, every
        # point of the ball of half the target radius placed toward y stays
        # strictly inside the covering ball.
        rng = np.random.default_rng(78)
        checked = 0
        while checked < 1000:
            target = rng.uniform(0.2, 3.0)
            cover = rng.uniform(0.51, 1.5) * target
            lo = max(target - cover, 0.0)
            if not lo < cover:
                continue
            separation = rng.uniform(lo + 1e-6, cover - 1e-6)
            if separation <= 0:
                continue
            x = rng.uniform(-2, 2, size=2)
            angle = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(angle), math.sin(angle)])
            y = x + separation * u
            half = target / 2.0
            center = x + half * u if separation > 0 else x
            theta = rng.uniform(0, 2 * math.pi)
            v = center + half * np.array([math.cos(theta), math.sin(theta)])
            assert np.linalg.norm(v - y) < cover + 1e-9
            checked += 1


class TestFindInteriorPointNear:
    def test_strip_inward_offset(self, strip):
        z = find_interior_point_near(strip.desc, (0, 2), 0.1)
        assert np.linalg.norm(z - np.array([0, 2])) < 0.1
        assert strip.desc.interior_contains(z)

    def test_halfplane(self, halfplane):
        z = find_interior_point_near(halfplane.desc, (0, 0), 0.2)
        assert z[1] < 0 and np.linalg.norm(z) < 0.2

    def test_guard_on_thin_component(self, lineplane):
        with pytest.raises(GeometryError):
            find_interior_point_near(lineplane.desc, (0, 0), 0.1)


class TestBoundaryCrossing:
    def test_vertical_crossing(self, strip):
        a = boundary_crossing(strip.desc, (0, 1.75), (0, 2.05), (0, 2), 0.1)
        assert np.allclose(a, [0, 2], atol=1e-9)

    def test_oblique_crossing(self, halfplane):
        a = boundary_crossing(halfplane.desc, (0, 1), (0.05, -0.05), (0, 0), 0.1)
        assert abs(a[1]) < 1e-9
        assert np.linalg.norm(a - np.array([0, 0])) < 0.1
        # Membership flips across the returned point along the segment.
        xi = np.array([0.05, -1.05]) / np.linalg.norm([0.05, -1.05])
        assert halfplane.desc.contains(a + 1e-9 * xi)
        assert not halfplane.desc.contains(a - 1e-9 * xi)

    def test_rejects_non_interior_end(self, strip):
        with pytest.raises(GeometryError):
            boundary_crossing(strip.desc, (0, 1.75), (0, 2.0), (0, 2), 0.1)


# A pentagon whose radius 5 violates the condition, with a line beside it.
# Near the first probe's projection the epsilon loop shrinks eps below the
# membership tolerance, where no interior point can be found.
PENTAGON_LINE = """
[scene]
name = pentagon-line
dim = 2
bbox = (-6.0, -6.0) (6.0, 6.0)
combine = union

[set]
other = line(point=(-1.1908609114329332, -1.5981559109712267), direction=(0.6462010364317364, -0.7631672297174124))
poly = intersection(halfspace(normal=(-0.7631672297174124, -0.6462010364317364), offset=1.041556028806137), halfspace(normal=(0.37874206300235497, -0.9255022688857766), offset=1.5325763004795852), halfspace(normal=(0.9972426976221218, 0.07420917759518218), offset=1.470875799492671), halfspace(normal=(0.23758781916075028, 0.9713660629167763), offset=0.9417225210864135), halfspace(normal=(-0.8504053500678147, 0.5261280648055545), offset=0.6763883107598246))

[radius]
poly = 5.0
other = 5.0

[samples]
seed = 1
boundary_samples = 24
rho_max = 100
delta_list = 1 10
"""
PENTAGON_PROBE = (-0.12408716012501031, -1.468903820334889)


class TestConstructWitness:
    def test_unresolvable_interior_point_fails_the_witness(self, tmp_path, capsys):
        scene = parse_scene(PENTAGON_LINE)
        w = construct_witness(
            scene.desc, scene.radius_field, PENTAGON_PROBE, delta_list=(1.0, 10.0), seed=1,
            rho_max=100.0,
        )
        assert w.ok is False and w.case_tag == "failed"
        assert "no interior point found" in w.note
        path = tmp_path / "pentagon-line.scene"
        path.write_text(PENTAGON_LINE)
        assert main(["cover", str(path), "--points", repr(PENTAGON_PROBE)]) == 1
        assert "ok=False" in capsys.readouterr().out

    def test_strip_direct_case(self, strip):
        w = construct_witness(strip.desc, strip.rf, (0, 1))
        assert w.ok and w.case_tag == "C1-direct"
        assert np.allclose(w.ball.center, [0, 1])
        assert w.ball.radius == pytest.approx(0.25, abs=1e-9)

    def test_strip_boundary_of_interior_case(self, strip):
        w = construct_witness(strip.desc, strip.rf, (0, 1.75))
        assert w.ok and w.case_tag.startswith("C1.2")
        assert w.ball.radius == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(w.ball.center, [0, 1.25], atol=1e-9)
        assert strip.desc.distance(w.ball.center) >= w.ball.radius - 1e-9

    def test_point_set_infinite_case(self, pointset):
        w = construct_witness(pointset.desc, pointset.rf, (1, 0), delta_list=(1.0, 10.0))
        assert w.ok and w.case_tag == "C2.1"
        assert np.allclose(w.direction, [1, 0])
        assert all(clear >= delta - 1e-9 for delta, clear in w.delta_checks)

    def test_halfplane_synthetic_route(self, halfplane):
        w = construct_witness(halfplane.desc, halfplane.rf, (0.3, 2), delta_list=(1.0, 5.0))
        assert w.ok and w.case_tag == "C2-finite-delta"
        assert np.allclose(w.direction, [0, 1], atol=1e-6)

    def test_one_projection_per_witness(self, strip, monkeypatch):
        # One projection call per batch, one projected row per witness.
        rows = []
        original = ClosedSetDesc.project_many

        def counting(desc, P):
            rows.append(len(P))
            return original(desc, P)

        monkeypatch.setattr(ClosedSetDesc, "project_many", counting)
        points = [(0, 1), (0, 1.75), (0, 0.3), (3, 1.5), (-2, 0.01)]
        assert all(w.ok for w in construct_witness_many(strip.desc, strip.rf, points))
        assert rows == [len(points)]
        rows.clear()
        assert construct_witness(strip.desc, strip.rf, points[1]).ok
        assert rows == [1]

    def test_rejects_member_point(self, strip):
        with pytest.raises(GeometryError):
            construct_witness(strip.desc, strip.rf, (0, -1))

    def test_intermediates_recorded(self, strip):
        w = construct_witness(strip.desc, strip.rf, (0, 1.75))
        for key in ("a_x", "rho_x", "eps", "z_eps", "a_eps", "y_eps", "rho_star"):
            assert key in w.intermediates

    @pytest.mark.parametrize("maker,exterior_band", [
        (make_strip, None),
        (make_ball, None),
        (make_ballcomplement, None),
    ])
    def test_witness_soundness_against_grid_oracle(self, maker, exterior_band):
        # The only must-hold property: every returned ball contains its point
        # and keeps its radius away from the set, against the independent
        # brute-force oracle.
        fix = maker()
        desc, rf = fix.desc, fix.rf
        oracle = desc.oracle
        pts = desc.sample_exterior(50, seed=19)
        for i, x in enumerate(pts):
            w = construct_witness(desc, rf, x, seed=i)
            assert w.ok, w.note
            if w.ball is not None:
                c = np.asarray(w.ball.center)
                r = w.ball.radius
                assert np.linalg.norm(x - c) <= r + 1e-9
                assert oracle.distance(c) >= r - 2 * oracle.h
            else:
                for delta, clear in w.delta_checks:
                    assert clear >= delta - 1e-9

    def test_coverage_rate_on_holding_scene(self, strip):
        pts = strip.desc.sample_exterior(400, seed=23)
        succeeded = 0
        for i, x in enumerate(pts):
            w = construct_witness(strip.desc, strip.rf, x, seed=i)
            succeeded += 1 if w.ok else 0
            if not w.ok:
                assert w.note  # diagnostics required on failure
        assert succeeded == len(pts)

    def test_case_tags_cover_the_dispatch(self, strip, ballcomplement):
        tags = set()
        for fix in (strip, ballcomplement):
            for i, x in enumerate(fix.desc.sample_exterior(200, seed=3)):
                tags.add(construct_witness(fix.desc, fix.rf, x, seed=i).case_tag)
        assert "C1-direct" in tags
        assert any(t.startswith("C1.2") for t in tags)


def _as_json(witness) -> str:
    return json.dumps(_jsonable(witness), sort_keys=True)


def make_pentagon_line() -> SceneFix:
    scene = parse_scene(PENTAGON_LINE)
    return SceneFix(scene.desc, scene.radius_field)


class TestConstructWitnessMany:
    @pytest.mark.parametrize("maker,tags", [
        (make_strip, {"C1-direct", "C1.2.2"}),
        (make_ball, {"C1-direct", "C1.2.2"}),
        (make_ballcomplement, {"C1-direct", "C1.2.2"}),
        (make_halfplane, {"C2-finite-delta"}),
        (make_pointset, {"C2.1"}),
        # Generic normals, where a lone membership row rounds apart from
        # a batch: the crossings must still land where one-row calls do.
        (make_pentagon_line, {"C1-direct", "C1.1", "C1.2.2", "failed"}),
    ])
    def test_batched_witnesses_equal_one_row_witnesses(self, maker, tags):
        # The probes nearest the boundary run the epsilon loop; a batch
        # builds every row as its one-row call does, bit for bit.
        fix = maker()
        pts = fix.desc.sample_exterior(200, seed=13)
        X = pts[np.argsort(fix.desc.distance_many(pts))][::5]
        batch = construct_witness_many(fix.desc, fix.rf, X, delta_list=(1.0, 10.0), seed=4)
        assert len(batch) == len(X)
        for x, w in zip(X, batch):
            one = construct_witness(fix.desc, fix.rf, x, delta_list=(1.0, 10.0), seed=4)
            assert _as_json(w) == _as_json(one), x
        assert tags <= {w.case_tag for w in batch}

    def test_failed_probe_keeps_its_note_in_a_batch(self):
        scene = parse_scene(PENTAGON_LINE)
        X = [PENTAGON_PROBE, *scene.desc.sample_exterior(6, seed=2)]
        kwargs = {"delta_list": (1.0, 10.0), "seed": 1, "rho_max": 100.0}
        batch = construct_witness_many(scene.desc, scene.radius_field, X, **kwargs)
        assert batch[0].case_tag == "failed" and "no interior point found" in batch[0].note
        assert "np.float64" not in batch[0].note
        for x, w in zip(X, batch):
            one = construct_witness(scene.desc, scene.radius_field, x, **kwargs)
            assert _as_json(w) == _as_json(one), x

    def test_first_failing_row_raises(self, strip):
        with pytest.raises(GeometryError, match=r"\[0\.0, 3\.0\] lies in the set"):
            construct_witness_many(strip.desc, strip.rf, [(0, 1), (0, 3), (0, -1)])
        with pytest.raises(GeometryError, match="expected dimension 2"):
            construct_witness_many(strip.desc, strip.rf, [(0, 1), (0, 1, 0), (0, -1)])

    def test_empty_batch(self, strip):
        assert construct_witness_many(strip.desc, strip.rf, []) == []

    def test_cover_names_the_first_member_probe(self, capsys):
        path = os.path.join(SCENES, "strip.scene")
        assert main(["cover", path, "--points", "(0,1) (0,3) (0,-1)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[0.0, 3.0] lies in the set" in captured.err
