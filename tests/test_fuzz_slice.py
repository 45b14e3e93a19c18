"""A seeded slice of the randomized cross-validation in scripts/fuzz_scenes.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_scenes.py"


@pytest.fixture(scope="module")
def fuzz():
    spec = importlib.util.spec_from_file_location("fuzz_scenes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_scene_has_no_problem(fuzz, seed):
    # The harness is the slow part; one scene of the slice runs it.
    assert fuzz.run_one(seed, with_harness=seed == 0) == []
