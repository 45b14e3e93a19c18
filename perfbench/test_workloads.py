"""Tests of the benchmark's input generator, tracer and metric table.

Run from the repository root:  python -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import extsphere.scene  # noqa: E402
import extsphere.sets  # noqa: E402
import workloads  # noqa: E402
from extsphere.scene import parse_scene  # noqa: E402
from tracer import Tracer  # noqa: E402

SCENES = os.path.join(ROOT, "scenes")


def _inputs(name, seed):
    wl = workloads.build(name, seed, SCENES)
    return wl.scenes, [(inv.scene, inv.command, inv.argv) for inv in wl.invocations]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_equal_seeds_give_identical_inputs(name):
    assert _inputs(name, 11) == _inputs(name, 11)


@pytest.mark.parametrize("name", ["polytope-check", "witness-cover"])
def test_other_seeds_give_other_inputs(name):
    assert _inputs(name, 11) != _inputs(name, 12)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_generated_scenes_load_and_probes_are_exterior(seed):
    wl = workloads.polytope_check(seed)
    assert [inv.command for inv in wl.invocations] == [
        "check", "cover", "check", "check", "cover", "check"]
    for inv in wl.invocations:
        scene = parse_scene(wl.scenes[inv.scene], name=inv.scene)
        if inv.command != "cover":
            continue
        probes = np.asarray(inv.probes)
        assert probes.shape == (sum(workloads.POLY_PROBES), scene.desc.dim)
        dist = scene.desc.distance_many(probes)
        n_near = workloads.POLY_PROBES[0]
        assert np.all(dist[:n_near] > 0) and np.all(dist[:n_near] <= workloads.SHELL[1] + 1e-12)
        assert np.all(dist[n_near:] > workloads.SHELL[1])


def test_bundled_report_pins_roadmap_digests_at_the_default_seed():
    pinned = {inv.scene: inv.digest for inv in workloads.bundled_report(7, SCENES).invocations}
    assert pinned == workloads.ROADMAP_REPORT_DIGESTS
    assert all(inv.digest is None for inv in workloads.bundled_report(8, SCENES).invocations)


def test_witness_cover_probes_split_between_shell_and_far():
    wl = workloads.witness_cover(3, SCENES)
    n_near, n_far = workloads.COVER_PROBES
    for inv in wl.invocations:
        desc = parse_scene(wl.scenes[inv.scene], name=inv.scene).desc
        probes = np.asarray(inv.probes)
        dist = desc.distance_many(probes)
        assert len(probes) == n_near + n_far
        assert np.all(dist > 0)
        assert np.all(dist[:n_near] <= workloads.SHELL[1] + 1e-12)
        assert np.all(dist[n_near:] > workloads.SHELL[1])


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)


def test_tracer_records_nested_spans_and_restores_the_program():
    original = extsphere.sets.ClosedSetDesc.distance_many
    tracer = Tracer().install()
    try:
        scene = extsphere.scene.load_scene(os.path.join(SCENES, "ball.scene"))
        scene.desc.distance_many(np.zeros((5, 2)))
    finally:
        tracer.uninstall()
    assert extsphere.sets.ClosedSetDesc.distance_many is original
    load = tracer.stats["scene.load_scene"]
    assert load.calls == 1 and 0.0 <= load.self <= load.total
    assert tracer.stats["sets.distance_many"].units >= 5
    assert tracer.edges[("scene.load_scene", "sets.validate")] == 1
    names = [span[0] for span in tracer.spans]
    load_index = names.index("scene.load_scene")
    validate = tracer.spans[names.index("sets.validate")]
    assert validate[3] == load_index and tracer.spans[load_index][3] == -1
