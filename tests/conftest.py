from dataclasses import dataclass

import pytest

from extsphere.proximal import RadiusField
from extsphere.sets import (
    AffineSubspace,
    BallComplement,
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    HalfSpace,
    Intersection,
    Union,
)


@dataclass
class SceneFix:
    desc: ClosedSetDesc
    rf: RadiusField


def make_strip() -> SceneFix:
    """A = {y <= 0 or y >= 2}; boundary radius 1/2 below, 1 above."""
    desc = ClosedSetDesc(
        Union([
            HalfSpace((0, 1), 0.0, label="bottom"),
            HalfSpace((0, -1), -2.0, label="top"),
        ]),
        box=((-6, -4), (6, 6)),
        name="strip",
    )
    return SceneFix(desc, RadiusField.from_sources({"bottom": 0.5, "top": 1}))


def make_lineplane() -> SceneFix:
    """A = {y = 0} union {y >= 4}; boundary radius 1 on the line, 3 above."""
    desc = ClosedSetDesc(
        Union([
            AffineSubspace((0, 0), [(1, 0)], label="line"),
            HalfSpace((0, -1), -4.0, label="plane"),
        ]),
        box=((-6, -3), (6, 9)),
        name="lineplane",
    )
    return SceneFix(desc, RadiusField.from_sources({"line": 1, "plane": 3}))


def make_ball(radius_value=5) -> SceneFix:
    desc = ClosedSetDesc(ClosedBall((0, 0), 1.0, label="disk"), box=((-4, -4), (4, 4)), name="ball")
    return SceneFix(desc, RadiusField.from_sources({"disk": radius_value}))


def make_ballcomplement(radius_value=1) -> SceneFix:
    desc = ClosedSetDesc(
        BallComplement((0, 0), 1.0, label="shell"), box=((-3, -3), (3, 3)), name="ballcomplement"
    )
    return SceneFix(desc, RadiusField.from_sources({"shell": radius_value}))


def make_halfplane(radius_value="inf") -> SceneFix:
    desc = ClosedSetDesc(HalfSpace((0, 1), 0.0, label="floor"), box=((-6, -6), (6, 6)), name="halfplane")
    return SceneFix(desc, RadiusField.from_sources({"floor": radius_value}))


def make_pointset() -> SceneFix:
    desc = ClosedSetDesc(
        FinitePointSet([(0, 0)], label="origin"), box=((-3, -3), (3, 3)), name="pointset"
    )
    return SceneFix(desc, RadiusField.from_sources({"origin": "inf"}))


def make_polydisk() -> SceneFix:
    """A convex pentagon (a square cut by x + y <= 1.5) united with a disk."""
    facets = [((1, 0), 1.0), ((0, 1), 1.0), ((-1, 0), 1.0), ((0, -1), 1.0), ((1, 1), 1.5)]
    poly = Intersection(
        [HalfSpace(n, b, label=f"poly.{k}") for k, (n, b) in enumerate(facets)]
    )
    desc = ClosedSetDesc(
        Union([poly, ClosedBall((3.5, 0), 1.0, label="disk")]),
        box=((-4, -4), (6, 4)),
        name="polydisk",
    )
    sources = {leaf.label: 0.4 for leaf in desc.leaves}
    return SceneFix(desc, RadiusField.from_sources(sources))


@pytest.fixture(scope="session")
def strip() -> SceneFix:
    return make_strip()


@pytest.fixture(scope="session")
def lineplane() -> SceneFix:
    return make_lineplane()


@pytest.fixture(scope="session")
def ball() -> SceneFix:
    return make_ball()


@pytest.fixture(scope="session")
def ballcomplement() -> SceneFix:
    return make_ballcomplement()


@pytest.fixture(scope="session")
def halfplane() -> SceneFix:
    return make_halfplane()


@pytest.fixture(scope="session")
def pointset() -> SceneFix:
    return make_pointset()


@pytest.fixture(scope="session")
def polydisk() -> SceneFix:
    return make_polydisk()
