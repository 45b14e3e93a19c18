import json
import math
import os

import pytest

from extsphere import conditions, sconvex
from extsphere.cli import main
from extsphere.scene import SceneError, load_scene, parse_scene

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def scene_path(name: str) -> str:
    return os.path.join(SCENES, name)


STRIP_TEXT = """
[scene]
name = strip
dim = 2
bbox = (-6, -4) (6, 6)
combine = union

[set]
bottom = halfspace(normal=(0, 1), offset=0)
top    = halfspace(normal=(0, -1), offset=-2)

[radius]
bottom = 0.5
top = 1

[samples]
seed = 7
boundary_samples = 50
rho_max = 100
point = (0, 1)
ray = (0, 1) dir (0, 1)
"""


class TestParsing:
    def test_strip_text_roundtrip(self):
        scene = parse_scene(STRIP_TEXT)
        assert scene.name == "strip"
        assert [leaf.label for leaf in scene.desc.leaves] == ["bottom", "top"]
        assert scene.desc.contains((0, 0)) and not scene.desc.contains((0, 1))
        assert scene.radius_field.value((0, 0), ("bottom",)) == 0.5
        assert scene.samples.seed == 7
        assert scene.samples.points == [(0.0, 1.0)]
        assert scene.samples.rays == [((0.0, 1.0), (0.0, 1.0))]

    def test_decimal_literals_parse_bit_exactly(self):
        text = STRIP_TEXT.replace("bottom = 0.5", "bottom = 0.1")
        scene = parse_scene(text)
        assert scene.radius_field.value((0, 0), ("bottom",)) == 0.1

    def test_inf_token(self):
        text = STRIP_TEXT.replace("bottom = 0.5", "bottom = inf")
        scene = parse_scene(text)
        assert scene.radius_field.value((0, 0), ("bottom",)) == math.inf

    def test_all_bundled_scenes_load(self):
        for name in ("strip", "lineplane", "ball", "ballcomplement", "halfplane", "pointset"):
            scene = load_scene(scene_path(f"{name}.scene"))
            assert scene.desc.leaves

    def test_parse_error_carries_line_number(self):
        bad = STRIP_TEXT.replace("top    = halfspace(normal=(0, -1), offset=-2)",
                                 "top    = halfspace(normal=(0, -1)")
        with pytest.raises(SceneError) as err:
            parse_scene(bad)
        assert "line" in str(err.value)

    def test_unknown_primitive_rejected(self):
        bad = STRIP_TEXT.replace("halfspace(normal=(0, 1), offset=0)", "wedge(angle=1)")
        with pytest.raises(SceneError):
            parse_scene(bad)

    def test_unknown_radius_label_rejected(self):
        bad = STRIP_TEXT.replace("top = 1", "top = 1\nmystery = 2")
        with pytest.raises(SceneError):
            parse_scene(bad)

    def test_missing_radius_rule_rejected(self):
        bad = STRIP_TEXT.replace("top = 1\n", "")
        with pytest.raises(SceneError):
            parse_scene(bad)

    def test_touching_components_rejected(self):
        bad = STRIP_TEXT.replace("offset=-2", "offset=0")
        with pytest.raises(SceneError):
            parse_scene(bad)

    def test_line_with_zero_direction_rejected(self):
        # A point is point(...); a line without a direction is not one.
        line = "top    = line(point=(1, 2), direction=(0, 0))"
        bad = STRIP_TEXT.replace("top    = halfspace(normal=(0, -1), offset=-2)", line)
        with pytest.raises(SceneError) as err:
            parse_scene(bad)
        assert err.value.line == bad.splitlines().index(line) + 1
        assert "bad line" in str(err.value) and "empty" not in str(err.value)
        assert "nonzero direction" in str(err.value)

    def test_plane_with_dependent_basis_rejected(self):
        plane = "slab = plane(point=(0, 0, 0), basis=((1, 0, 0), (2, 0, 0)))"
        text = (
            "[scene]\nname = flat\ndim = 3\nbbox = (-3, -3, -3) (3, 3, 3)\n\n"
            f"[set]\n{plane}\n\n[radius]\nslab = 1\n"
        )
        with pytest.raises(SceneError) as err:
            parse_scene(text)
        assert err.value.line == text.splitlines().index(plane) + 1
        assert "bad plane" in str(err.value) and "independent" in str(err.value)

    def test_probe_outside_bbox_rejected(self):
        bad = STRIP_TEXT.replace("point = (0, 1)", "point = (40, 1)")
        with pytest.raises(SceneError):
            parse_scene(bad)

    def test_slab_and_intersection_primitives(self):
        text = """
[scene]
dim = 2
bbox = (-5, -5) (5, 5)
combine = union
[set]
band = slab(normal=(0, 1), lo=-1, hi=1)
[radius]
band = 2
"""
        scene = parse_scene(text)
        assert scene.desc.contains((3, 0.5)) and not scene.desc.contains((0, 2))
        text2 = """
[scene]
dim = 2
bbox = (-5, -5) (5, 5)
combine = union
[set]
corner = intersection(halfspace(normal=(1, 0), offset=0), halfspace(normal=(0, 1), offset=0))
[radius]
corner = inf
"""
        scene2 = parse_scene(text2)
        assert scene2.desc.contains((-1, -1)) and not scene2.desc.contains((1, -1))

    def test_plane_primitive_in_3d(self):
        text = """
[scene]
dim = 3
bbox = (-4, -4, -4) (4, 4, 4)
combine = union
[set]
sheet = plane(point=(0, 0, 0), basis=((1, 0, 0), (0, 1, 0)))
[radius]
sheet = 1
"""
        scene = parse_scene(text)
        assert scene.desc.dim == 3
        assert scene.desc.contains((1, 2, 0)) and not scene.desc.contains((0, 0, 1))

    def test_nonconvex_intersection_rejected_in_scene(self):
        text = """
[scene]
dim = 2
bbox = (-5, -5) (5, 5)
[set]
weird = intersection(ballcomplement(center=(0,0), radius=1), halfspace(normal=(0,1), offset=0))
[radius]
weird = 1
"""
        with pytest.raises(SceneError):
            parse_scene(text)

    def test_empty_scene_rejected(self):
        bad = """
[scene]
dim = 2
bbox = (-2, -2) (2, 2)
[set]
far = ball(center=(50, 50), radius=1)
[radius]
far = 1
"""
        with pytest.raises(SceneError):
            parse_scene(bad)


class TestCli:
    def test_check_strip_exit_zero(self, capsys):
        assert main(["check", scene_path("strip.scene"), "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "check: holds" in out

    def test_check_lineplane_exit_one(self, capsys):
        assert main(["check", scene_path("lineplane.scene"), "--samples", "40"]) == 1
        out = capsys.readouterr().out
        assert "check: fails" in out
        assert "realization" in out

    def test_harness_lineplane(self, capsys):
        assert main(["harness", scene_path("lineplane.scene"), "--samples", "40"]) == 1
        out = capsys.readouterr().out
        assert "i=fails ii=fails iii=fails consistent=True" in out

    def test_cover_with_explicit_point_and_svg(self, tmp_path, capsys):
        svg = tmp_path / "cover.svg"
        code = main([
            "cover", scene_path("strip.scene"), "--points", "(0,1)", "--svg", str(svg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "radius 0.25" in out
        body = svg.read_text()
        assert body.startswith("<?xml")
        assert 'r="0.25"' in body and "#2da44e" in body

    def test_sconvex_subcommand(self, capsys):
        assert main(["sconvex", scene_path("ball.scene"), "--envelope", "space"]) == 0
        assert main([
            "sconvex", scene_path("lineplane.scene"), "--envelope", "full", "--samples", "40",
        ]) == 1

    def test_report_subcommand(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = main([
            "report", scene_path("strip.scene"), "--samples", "40",
            "--json-report", str(out_json),
        ])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["verdicts"]["condition"] == "holds"
        assert payload["consistent"] is True
        assert "digest" in payload

    def test_report_checks_the_condition_once(self, tmp_path, capsys, monkeypatch):
        # The condition line of report is the harness's condition check, run
        # at the full sample count like the harness subcommand does.
        runs = []
        original = conditions.check_extended_condition

        def recording(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(conditions, "check_extended_condition", recording)
        monkeypatch.setattr(sconvex, "check_extended_condition", recording)
        out_json = tmp_path / "report.json"
        code = main([
            "report", scene_path("ball.scene"), "--samples", "130",
            "--json-report", str(out_json),
        ])
        assert code == 0
        assert [run.boundary_samples for run in runs] == [130]
        payload = json.loads(out_json.read_text())
        assert payload["verdicts"]["condition"] == runs[0].verdict == "holds"

    def test_scene_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("[set]\nx = nonsense(\n")
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["check", "/nonexistent/path.scene"]) == 2

    def test_delta_list_flag(self, capsys):
        code = main([
            "cover", scene_path("pointset.scene"), "--points", "(1,0)",
            "--delta-list", "2,20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "C2.1" in out

    def test_determinism_same_seed_same_digest(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            main([
                "check", scene_path("strip.scene"), "--samples", "40",
                "--seed", "11", "--json-report", str(out),
            ])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["digest"] == b["digest"]
        a.pop("timings"), b.pop("timings")
        assert a == b

    def test_different_seed_changes_samples(self, tmp_path):
        digests = []
        for seed in ("11", "12"):
            out = tmp_path / f"{seed}.json"
            main([
                "check", scene_path("strip.scene"), "--samples", "40",
                "--seed", seed, "--json-report", str(out),
            ])
            digests.append(json.loads(out.read_text())["digest"])
        assert digests[0] != digests[1]


class TestSvg:
    def test_scene_rendering_covers_primitives(self):
        from extsphere.svg import render_scene

        for name in ("strip", "lineplane", "ball", "ballcomplement", "pointset"):
            scene = load_scene(scene_path(f"{name}.scene"))
            body = render_scene(scene.desc)
            assert body.startswith("<?xml") and "</svg>" in body

    def test_overlays(self):
        from extsphere.svg import render_scene

        scene = load_scene(scene_path("strip.scene"))
        body = render_scene(
            scene.desc,
            witness_balls=[((0, 1), 0.25)],
            violations=[(0, 1.5)],
            normal_segments=[((0, 2), (0, -1), 1.0)],
        )
        assert "#2da44e" in body and "#cf222e" in body and "#0969da" in body
