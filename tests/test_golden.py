"""Golden report digests: every (scene, command) pair pinned bit for bit.

The digest is the 16-hex-digit prefix that ``extsphere`` prints; it covers
the JSON report minus ``timings``.  The pins hold for the numpy version
recorded in ``PINNED_NUMPY``.  A refactor must leave every one unchanged; a
deliberate re-pin goes in CHANGES.md with its reason.
"""

import json
import os
import platform

import numpy as np
import pytest

from extsphere.cli import main
from extsphere.scene import load_scene
from extsphere.sconvex import normal_segments

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

PINNED_NUMPY = "2.4.6"

# (check, harness, report, cover) per bundled scene, each at the scene's own
# parameters; cover uses the scene's own probe points.
BUNDLED = {
    "strip": ("8c27c67c3b716612", "4b736b3e22897e38", "b1196b417416ada9", "4d26e83a847c2322"),
    "lineplane": ("3aefcdd71a007ad4", "4aa5661aa55036e0", "877e60609a53cb22", "f3b69119039f6b05"),
    "ball": ("d98a743a1d928e08", "af41c10c3295e7eb", "75de1f83a65fac13", "18ede0e81fef9ef2"),
    "ballcomplement": ("74c4fe9b6e83445c", "e7c6d7c7b1ede6f6", "b26f6b06b40ad909", "6297c01fa62c3e15"),
    "halfplane": ("173f134a8bd19c10", "bc70a646218e43be", "0ab5471db682063d", "caa03f96ed2b4805"),
    "pointset": ("91ab1b271c9880ee", "cf190ed09e344ec2", "cbf14ee22337e299", "43c3a449f8cf4eca"),
}
COMMANDS = ("check", "harness", "report", "cover")

# `sconvex --envelope {full, capped, space}` per bundled scene.
SCONVEX = {
    "strip": ("eb5db9415933956e", "77e670366b6ee492", "90d0cf0c3ebda8a7"),
    "lineplane": ("ba3c86772925080a", "39bf112ebbb40978", "300ca7f04b7b672c"),
    "ball": ("646d68073281c881", "37e03e941ad48815", "6088cc5ea51957e8"),
    "ballcomplement": ("d6015d960101016b", "1b10c657545dd284", "cb5c2e84a31c518c"),
    "halfplane": ("d2790826a7b9ffb6", "f2769b45196de779", "3da960561990d102"),
    "pointset": ("82be065b67f7278f", "246c443b04983525", "9c137b7d1d3388b7"),
}
ENVELOPES = ("full", "capped", "space")

# No bundled scene has an intersection; these two send every query through
# a convex intersection nested in a union.
POLYDISK = """
[scene]
name = polydisk
dim = 2
bbox = (-4, -4) (6, 4)
combine = union

[set]
poly = intersection(halfspace(normal=(1, 0), offset=1), halfspace(normal=(0, 1), offset=1), halfspace(normal=(-1, 0), offset=1), halfspace(normal=(0, -1), offset=1), halfspace(normal=(1, 1), offset=1.5))
disk = ball(center=(3.5, 0), radius=1)

[radius]
poly = 0.4
disk = 0.4

[samples]
seed = 3
rho_max = 100
delta_list = 1 10
"""

CUBELINE = """
[scene]
name = cubeline
dim = 3
bbox = (-3, -3, -3) (3, 3, 3)
combine = union

[set]
cube = intersection(halfspace(normal=(1, 0, 0), offset=1), halfspace(normal=(-1, 0, 0), offset=1), halfspace(normal=(0, 1, 0), offset=1), halfspace(normal=(0, -1, 0), offset=1), halfspace(normal=(0, 0, 1), offset=1), halfspace(normal=(0, 0, -1), offset=1))
rail = line(point=(0, 0, 2), direction=(1, 1, 0))

[radius]
cube = 0.4
rail = 0.4

[samples]
seed = 5
rho_max = 100
delta_list = 1 10
"""

INTERSECTION_CASES = {
    ("polydisk", "check"): (POLYDISK, ["--samples", "12"], "e207948af49ad9a9"),
    ("polydisk", "cover"): (POLYDISK, ["--points", "(1.05, 0) (0, -1.02) (0.8, 0.8)"], "209b2bf09a7c9651"),
    ("cubeline", "check"): (CUBELINE, ["--samples", "6"], "2a3d59969b47b635"),
}


# Bundled JSON reports by (scene, command), kept from the digest tests so
# that the verdict comparison below does not rerun them.
_PAYLOADS = {}


def _payload(tmp_path, command, scene_path, extra=()):
    out = tmp_path / "report.json"
    code = main([command, scene_path, *extra, "--json-report", str(out)])
    assert code in (0, 1), f"{command} exited {code}"
    return json.loads(out.read_text())


def _bundled_payload(tmp_path, name, command):
    if (name, command) not in _PAYLOADS:
        path = os.path.join(SCENES, f"{name}.scene")
        _PAYLOADS[(name, command)] = _payload(tmp_path, command, path)
    return _PAYLOADS[(name, command)]


def _explain(name, command, actual, pinned):
    return (
        f"{name} {command}: digest {actual}, pinned {pinned} "
        f"(numpy {np.__version__}, pinned under {PINNED_NUMPY}; "
        f"python {platform.python_version()})"
    )


@pytest.mark.parametrize(
    "name,command", [(name, command) for name in BUNDLED for command in COMMANDS]
)
def test_bundled_digest(tmp_path, capsys, name, command):
    pinned = BUNDLED[name][COMMANDS.index(command)]
    actual = _bundled_payload(tmp_path, name, command)["digest"]
    assert actual == pinned, _explain(name, command, actual, pinned)


@pytest.mark.parametrize(
    "name,envelope", [(name, envelope) for name in SCONVEX for envelope in ENVELOPES]
)
def test_sconvex_digest(tmp_path, capsys, name, envelope):
    pinned = SCONVEX[name][ENVELOPES.index(envelope)]
    path = os.path.join(SCENES, f"{name}.scene")
    payload = _payload(tmp_path, "sconvex", path, ["--envelope", envelope])
    if envelope == "full":
        _PAYLOADS[(name, "sconvex")] = payload
    actual = payload["digest"]
    assert actual == pinned, _explain(name, f"sconvex --envelope {envelope}", actual, pinned)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_report_verdicts_are_the_harness_verdicts(tmp_path, capsys, name):
    report = _bundled_payload(tmp_path, name, "report")
    harness = _bundled_payload(tmp_path, name, "harness")
    verdicts = report["verdicts"]
    assert verdicts["condition"] == harness["condition"]["verdict"] == harness["verdicts"]["i"]
    for key in ("i", "ii", "iii", "iii_parts"):
        assert verdicts[key] == harness["verdicts"][key], key
    assert report["consistent"] == harness["consistent"]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_sconvex_runs_on_the_harness_sample(tmp_path, capsys, name):
    # `extsphere sconvex` (full envelope by default) and the harness's
    # verdict ii test one normal-segment sample with one falsifier.
    payload = _bundled_payload(tmp_path, name, "sconvex")
    harness = _bundled_payload(tmp_path, name, "harness")
    assert payload["verdict"] == harness["verdicts"]["ii"]
    scene = load_scene(os.path.join(SCENES, f"{name}.scene"))
    spec = scene.samples
    _, (_, _, caps) = normal_segments(
        scene.desc, spec.boundary_samples, spec.density, spec.seed, spec.rho_max
    )
    assert payload["report"]["segments_tested"] == len(caps)


def test_capped_sconvex_is_the_capped_convexity_part(tmp_path, capsys):
    path = os.path.join(SCENES, "lineplane.scene")
    capped = _payload(tmp_path, "sconvex", path, ["--envelope", "capped"])
    harness = _bundled_payload(tmp_path, "lineplane", "harness")
    assert capped["verdict"] == harness["verdicts"]["iii_parts"]["capped_convexity"] == "holds"


def test_pointset_sconvex_tests_no_pair_on_one_base(tmp_path, capsys):
    # The point is sampled once, its full cone strided to 40 normals; all
    # 40 segments share the one base, so no pair is tested.
    report = _bundled_payload(tmp_path, "pointset", "sconvex")["report"]
    assert (report["segments_tested"], report["pairs_tested"]) == (40, 0)
    assert not any("pair budget" in note for note in report["notes"])


@pytest.mark.parametrize("name,command", sorted(INTERSECTION_CASES))
def test_intersection_digest(tmp_path, capsys, name, command):
    text, extra, pinned = INTERSECTION_CASES[(name, command)]
    path = tmp_path / f"{name}.scene"
    path.write_text(text)
    actual = _payload(tmp_path, command, str(path), extra)["digest"]
    assert actual == pinned, _explain(name, command, actual, pinned)
