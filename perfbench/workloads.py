"""Seeded inputs for the benchmark workloads.

Everything a workload hands to the program, scene text and probe lists, is a
pure function of the workload seed: equal seeds give byte-identical inputs.
Generated scenes are built from their own analytic description, so their
probe points never depend on the program's projection code; only the
bundled scenes' probes use the program's closed-form leaf projections.

An invocation is the argv of one ``extsphere`` CLI call plus what its output
is checked against (see ``checks.py``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from extsphere.scene import SceneError, parse_scene

BUNDLED = ("strip", "lineplane", "ball", "ballcomplement", "halfplane", "pointset")

# Seed 7 is the bundled scenes' own seed; at it `report` must reproduce the
# digests pinned in ROADMAP.md.
DEFAULT_SEED = 7
ROADMAP_REPORT_DIGESTS = {
    "strip": "b1196b417416ada9",
    "lineplane": "877e60609a53cb22",
    "ball": "75de1f83a65fac13",
    "ballcomplement": "b26f6b06b40ad909",
    "halfplane": "0ab5471db682063d",
    "pointset": "cbf14ee22337e299",
}
# Verdict of the extended condition on each bundled scene (lineplane is the
# paper's violating example); `report` exits 0 exactly where it holds.
BUNDLED_CONDITION_HOLDS = {name: name != "lineplane" for name in BUNDLED}

# Generated scenes: fixed sizes so that cost depends little on the seed.
POLY_PROBES = (6, 4)  # (near-boundary: one per facet, far) probes per generated scene
COVER_PROBES = (60, 60)  # (near-boundary, far) probes per bundled scene
SHELL = (1e-3, 0.05)  # distance band of near-boundary probes
FAILS_RADIUS = 5.0
MAX_TRIES = 20


@dataclass
class Invocation:
    scene: str  # scene name, also the stem of its file in the work directory
    command: str  # check | cover | report
    argv: list
    expect_exit: int | None = None  # check and report; cover is judged by its output
    condition_holds: bool | None = None  # cover: known verdict of the scene's condition
    digest: str | None = None  # pinned digest, when one is known in advance
    probes: tuple = ()  # the points passed with --points


@dataclass
class Workload:
    scenes: dict = field(default_factory=dict)  # name -> scene text
    invocations: list = field(default_factory=list)

    def write(self, workdir: str) -> dict:
        """Write the scene files; return name -> path."""
        paths = {}
        for name, text in self.scenes.items():
            path = os.path.join(workdir, f"{name}.scene")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths[name] = path
        return paths


def _num(v: float) -> str:
    return repr(float(v))


def _tup(v) -> str:
    return "(" + ", ".join(_num(c) for c in v) + ")"


def _cover(scene: str, probes: np.ndarray, condition_holds: bool, extra=()) -> Invocation:
    points = tuple(tuple(float(c) for c in p) for p in probes)
    arg = " ".join(_tup(p) for p in points)
    return Invocation(scene, "cover", ["cover", *extra, "--points", arg],
                      condition_holds=condition_holds, probes=points)


# ---------------------------------------------------------------------------
# polytope-check: convex intersection(...) polytopes united with a ball/line
# ---------------------------------------------------------------------------


def _polygon(k: int, radius: float):
    """Regular k-gon around the origin: (normals, offsets, facet sampler).

    The sampler takes facets in turn, so every seed puts the same number of
    probes on each facet: witnesses near the companion cost more.
    """
    ang = 2.0 * math.pi * np.arange(k) / k
    verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    mid = ang + math.pi / k
    normals = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    offsets = np.full(k, radius * math.cos(math.pi / k))

    def facet_points(rng, count):
        edge = np.arange(count) % k
        t = rng.uniform(0.1, 0.9, size=count)[:, None]
        return (1.0 - t) * verts[edge] + t * verts[(edge + 1) % k], normals[edge]

    return normals, offsets, facet_points


def _cube(half: float):
    """Axis-aligned cube around the origin: (normals, offsets, facet sampler)."""
    normals = np.concatenate([np.eye(3), -np.eye(3)], axis=0)
    offsets = np.full(6, half)

    def facet_points(rng, count):
        n = normals[np.arange(count) % 6]
        local = rng.uniform(-0.8 * half, 0.8 * half, size=(count, 3))
        local -= np.sum(local * n, axis=1, keepdims=True) * n  # in the face plane
        return half * n + local, n

    return normals, offsets, facet_points


def _rotation(rng, dim: int) -> np.ndarray:
    if dim == 2:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _polytope_scene(rng, name: str, dim: int, companion: str, holds: bool, samples: int,
                    seed: int):
    """A fixed configuration placed by a seeded rigid motion, plus probes.

    The polytope's facet 0 faces the companion (a ball, or a line parallel
    to that facet) across a fixed gap, so the seed changes only the pose,
    the boundary samples and the probes, and cost depends little on it.
    Holds-class radii stay below half the gap.  The companion is the first
    leaf, so the remainder of the boundary samples goes to a facet.
    """
    if dim == 2:
        normals, offsets, facet_points = _polygon(6 if holds else 5, 1.4)
        gap, r_ball, half_box = 0.9, 0.75, 6.0
    else:
        normals, offsets, facet_points = _cube(0.78)
        gap, r_ball, half_box = 0.75, 0.6, 5.0
    rot = _rotation(rng, dim)
    shift = rng.uniform(-0.4, 0.4, size=dim)

    def place(points):
        return points @ rot.T + shift

    normals_w = normals @ rot.T
    offsets_w = offsets + normals_w @ shift
    toward = normals_w[0]
    if companion == "ball":
        c_ball = place((offsets[0] + gap + r_ball) * normals[0])
        other = f"ball(center={_tup(c_ball)}, radius={_num(r_ball)})"
    else:
        anchor = place((offsets[0] + gap) * normals[0])
        along = rot @ np.array([-normals[0][1], normals[0][0], *([0.0] * (dim - 2))])
        other = f"line(point={_tup(anchor)}, direction={_tup(along)})"
    facets = ", ".join(
        f"halfspace(normal={_tup(n)}, offset={_num(b)})" for n, b in zip(normals_w, offsets_w)
    )
    radius = 0.4 * gap if holds else FAILS_RADIUS
    lo = _tup([-half_box] * dim)
    hi = _tup([half_box] * dim)
    text = (
        f"# generated polytope scene ({'holds' if holds else 'fails'}-class radii)\n"
        f"[scene]\nname = {name}\ndim = {dim}\nbbox = {lo} {hi}\ncombine = union\n\n"
        f"[set]\nother = {other}\npoly = intersection({facets})\n\n"
        f"[radius]\npoly = {_num(radius)}\nother = {_num(radius)}\n\n"
        f"[samples]\nseed = {seed}\nboundary_samples = {samples}\nrho_max = 100\n"
        "delta_list = 1 10\n"
    )

    # Near-boundary probes: a facet point pushed out along its facet normal
    # is at exactly that distance from the polytope, and the companion lies
    # at least `gap` away.  Far probes: outside every facet by a margin.
    n_near, n_far = POLY_PROBES
    pts, facet_normals = facet_points(rng, n_near)
    near = place(pts + rng.uniform(*SHELL, size=(n_near, 1)) * facet_normals)
    far = []
    while len(far) < n_far:
        x = rng.uniform(-0.95 * half_box, 0.95 * half_box, size=dim)
        outside_poly = np.max(normals_w @ x - offsets_w) > SHELL[1]
        if companion == "ball":
            clear = np.linalg.norm(x - c_ball) > r_ball + SHELL[1]
        else:
            offset = x - anchor
            clear = np.linalg.norm(offset - (offset @ along) * along) > SHELL[1]
        if outside_poly and clear:
            far.append(x)
    return text, np.concatenate([near, np.asarray(far)], axis=0)


def polytope_check(seed: int) -> Workload:
    """Two 2D polygons and two 3D cubes, each united with a ball or a line.

    The verdict mix is fixed by construction: the hexagon-plus-disk and
    cube-plus-ball scenes have holds-class radii, the pentagon-plus-disk and
    cube-plus-line scenes fails-class radii.  Witnesses are only asked for
    where the condition holds, the precondition of their construction.

    Boundary samples are split evenly over the leaves, the remainder going
    to the last facet; the sample counts keep the companion at one sample.
    Its samples cost up to eight times a facet sample when their normal
    rays graze a polytope vertex, so more of them would make cost depend on
    the seed.
    """
    rng = np.random.default_rng([seed, 1])
    wl = Workload()
    plan = (("hexagon-disk", 2, "ball", True, 13), ("pentagon-disk", 2, "ball", False, 11),
            ("cube-ball", 3, "ball", True, 10), ("cube-line", 3, "line", False, 10))
    for name, dim, companion, holds, samples in plan:
        for _ in range(MAX_TRIES):
            text, probes = _polytope_scene(rng, name, dim, companion, holds, samples,
                                           seed % 2**31)
            try:
                parse_scene(text, name=name)
                break
            except SceneError:
                continue  # the next draw from the same stream: deterministic retry
        else:
            raise RuntimeError(f"no loadable {name} scene for seed {seed}")
        wl.scenes[name] = text
        wl.invocations.append(Invocation(name, "check", ["check"], expect_exit=0 if holds else 1))
        if holds:
            wl.invocations.append(_cover(name, probes, holds))
    return wl


# ---------------------------------------------------------------------------
# bundled-report and witness-cover: the six bundled scenes
# ---------------------------------------------------------------------------


def _bundled_texts(scene_dir: str) -> dict:
    out = {}
    for name in BUNDLED:
        with open(os.path.join(scene_dir, f"{name}.scene"), "r", encoding="utf-8") as handle:
            out[name] = handle.read()
    return out


def bundled_report(seed: int, scene_dir: str) -> Workload:
    wl = Workload(_bundled_texts(scene_dir))
    for name in BUNDLED:
        wl.invocations.append(Invocation(
            name, "report", ["report", "--seed", str(seed)],
            expect_exit=0 if BUNDLED_CONDITION_HOLDS[name] else 1,
            digest=ROADMAP_REPORT_DIGESTS[name] if seed == DEFAULT_SEED else None,
        ))
    return wl


def _bundled_probes(desc, rng, n_near: int, n_far: int) -> np.ndarray:
    """Half in a thin shell over the boundary, half uniform exterior points.

    Shell points move an exterior point toward its (closed-form) projection
    until it sits SHELL away; all probes are checked to be exterior.
    """
    lo, hi = desc.box
    near, far = [], []
    while len(near) < n_near or len(far) < n_far:
        x = rng.uniform(lo, hi)
        d = desc.distance(x)
        if not d > SHELL[1]:
            continue
        if len(far) < n_far:
            far.append(x)
            continue
        proj = desc.project(x)
        if proj.multiplicity != 1:
            continue
        p = np.asarray(proj.points[0])
        y = p + rng.uniform(*SHELL) * (x - p) / d
        if desc.distance(y) > 0.5 * SHELL[0] and np.all(y > lo) and np.all(y < hi):
            near.append(y)
    return np.asarray(near + far)


def witness_cover(seed: int, scene_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    wl = Workload(_bundled_texts(scene_dir))
    for name in BUNDLED:
        desc = parse_scene(wl.scenes[name], name=name).desc
        probes = _bundled_probes(desc, rng, *COVER_PROBES)
        wl.invocations.append(
            _cover(name, probes, BUNDLED_CONDITION_HOLDS[name], extra=("--seed", str(seed))))
    return wl


WORKLOADS = {
    "bundled-report": bundled_report,
    "polytope-check": lambda seed, scene_dir: polytope_check(seed),
    "witness-cover": witness_cover,
}


def build(name: str, seed: int, scene_dir: str) -> Workload:
    """The workload's inputs for one seed."""
    return WORKLOADS[name](seed, scene_dir)
