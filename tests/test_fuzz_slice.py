"""A seeded slice of the randomized cross-validation in scripts/fuzz_scenes.py."""

import pytest


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_scene_has_no_problem(fuzz, seed):
    # The harness is the slow part; one scene of the slice runs it.
    assert fuzz.run_one(seed, with_harness=seed == 0) == []


@pytest.mark.xfail(strict=True, reason=(
    "known inconsistency: on ball0 plus line1, i=holds at the harness's 40 "
    "samples while ii fails and iii fails through unique_projection, and the "
    "scene's own 60-sample condition check fails; carrying the crossings of "
    "ii over to condition certificates (ROADMAP item 12) would make i fail too"
))
def test_harness_is_consistent_at_seed_42(fuzz):
    assert fuzz.run_one(42, with_harness=True) == []
