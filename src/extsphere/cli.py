"""Batch front-end: parse a scene file, run checkers, emit reports.

Subcommands: check (extended condition), cover (witness balls for probe
points), sconvex (S-convexity against a chosen envelope), harness (the
three-way equivalence), report (everything combined).  Exit status 0 means
every requested check holds, 1 means a violation or failed witness, 2 means
a usage or scene error.  Identical scene and seed reproduce the same report
digest; timings are reported but excluded from the digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import conditions as _conditions
from . import cover as _cover
from . import sconvex as _sconvex
from .geom import GeometryError
from .scene import SceneError, Scene, _Tokens, _parse_value, load_scene
from .svg import render_scene


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return "inf" if math.isinf(value) else value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _report_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def _parse_point_list(text: str):
    tok = _Tokens(text.replace(";", " "), 1)
    points = []
    while not tok.done():
        points.append(_parse_value(tok))
    return points


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("scene", help="scene file path")
    parser.add_argument("--seed", type=int, default=None, help="override the scene seed")
    parser.add_argument("--samples", type=int, default=None, help="boundary sample count")
    parser.add_argument("--density", type=int, default=None, help="direction sweep density")
    parser.add_argument("--rho-max", type=float, default=None, help="realization radius cap")
    parser.add_argument("--delta-list", default=None, help="deltas for infinite witnesses")
    parser.add_argument("--svg", default=None, help="write an SVG overlay to this path")
    parser.add_argument("--json-report", default=None, help="write the JSON report to this path")


def _effective(scene: Scene, args):
    spec = scene.samples
    seed = spec.seed if args.seed is None else args.seed
    samples = spec.boundary_samples if args.samples is None else args.samples
    density = spec.density if args.density is None else args.density
    rho_max = spec.rho_max if args.rho_max is None else args.rho_max
    deltas = spec.delta_list
    if args.delta_list is not None:
        deltas = tuple(float(v) for v in args.delta_list.replace(",", " ").split())
    return seed, samples, density, rho_max, deltas


def _emit(scene: Scene, payload: dict, lines: list[str], args) -> None:
    payload["digest"] = _report_digest(payload)
    print(f"scene: {scene.name} (report digest {payload['digest']})")
    for line in lines:
        print(line)
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"json report: {args.json_report}")


@dataclasses.dataclass
class _Outcome:
    """What a subcommand adds to the shared runner."""

    lines: list  # text lines after the digest line
    fields: dict  # payload fields besides command, scene, seed and timings
    ok: bool  # exit status 0 when true, else 1
    svg: dict | None = None  # render_scene overlays; None writes no SVG


def _cmd_check(scene: Scene, args, seed, samples, density, rho_max, deltas) -> _Outcome:
    report = _conditions.check_extended_condition(
        scene.desc, scene.radius_field, boundary_samples=samples, density=density,
        seed=seed, rho_max=rho_max,
    )
    counts = report.counts()
    lines = [
        f"check: {report.verdict} ({counts['total']} samples, "
        f"{counts['violations']} violations, {counts['marginal']} marginal, "
        f"{counts['unclassified']} unclassified)",
    ]
    for rec in report.violations()[:8]:
        cert = rec.certificate
        lines.append(
            f"  violation at {tuple(round(v, 9) for v in cert.point)} "
            f"dir {tuple(round(v, 6) for v in cert.direction)} "
            f"realization {cert.realization:.9g} < required {cert.required:.9g}"
        )
    return _Outcome(
        lines, {"verdict": report.verdict, "report": _jsonable(report)},
        ok=report.verdict in ("holds", "vacuous"),
        svg={"violations": [rec.certificate.point for rec in report.violations()]},
    )


def _cmd_cover(scene: Scene, args, seed, samples, density, rho_max, deltas) -> _Outcome:
    points = [np.asarray(p, dtype=float) for p in scene.samples.points]
    if args.points:
        points.extend(np.asarray(p, dtype=float) for p in _parse_point_list(args.points))
    if not points:
        points = list(scene.desc.sample_exterior(args.random_points, seed=seed))
    witnesses = []
    failures = 0
    lines = []
    for x in points:
        w = _cover.construct_witness(
            scene.desc, scene.radius_field, x, delta_list=deltas,
            density=density, seed=seed, rho_max=rho_max,
        )
        witnesses.append(w)
        if w.ball is not None:
            lines.append(
                f"cover: x={tuple(round(v, 9) for v in w.x)} case {w.case_tag} "
                f"ball center {tuple(round(float(c), 9) for c in w.ball.center)} "
                f"radius {w.ball.radius:.9g} ok={w.ok}"
            )
        else:
            lines.append(
                f"cover: x={tuple(round(v, 9) for v in w.x)} case {w.case_tag} "
                f"direction {tuple(round(v, 6) for v in (w.direction or ()))} ok={w.ok}"
            )
        failures += 0 if w.ok else 1
    lines.append(f"cover: {len(points) - failures}/{len(points)} witnesses verified")
    svg = {
        "witness_balls": [(w.ball.center, w.ball.radius) for w in witnesses if w.ball is not None],
        "witness_directions": [
            (np.asarray(w.x), np.asarray(w.direction), 0.25 * scene.desc.diameter)
            for w in witnesses
            if w.direction is not None
        ],
        "violations": [w.x for w in witnesses if not w.ok],
        "probe_points": [w.x for w in witnesses],
    }
    fields = {"verdict": "holds" if failures == 0 else "fails", "witnesses": _jsonable(witnesses)}
    return _Outcome(lines, fields, ok=failures == 0, svg=svg)


def _cmd_sconvex(scene: Scene, args, seed, samples, density, rho_max, deltas) -> _Outcome:
    ctx = _sconvex.EnvelopeContext(scene.desc, scene.radius_field, density, rho_max)
    membership = {
        "full": lambda P: _sconvex.envelope_many(ctx, P),
        "capped": lambda P: _sconvex.envelope_many(ctx, P, capped=True),
        "space": lambda P: np.ones(len(P), dtype=bool),
    }[args.envelope]
    sample = _sconvex.normal_segments(scene.desc, samples, density, seed, rho_max)
    report = _sconvex.is_s_convex(scene.desc, membership, sample, seed)
    lines = [
        f"sconvex[{args.envelope}]: {report.verdict} "
        f"({report.segments_tested} segments, {report.pairs_tested} pairs)"
    ]
    for v in report.violations[:4]:
        lines.append(
            f"  crossing at {tuple(round(c, 6) for c in v.point)} via {v.detector}: "
            f"bases {tuple(round(c, 6) for c in v.base_a)} / {tuple(round(c, 6) for c in v.base_b)}"
        )
    segs = []
    for v in report.violations:
        segs.append((v.base_a, v.dir_a, v.t_a))
        segs.append((v.base_b, v.dir_b, v.t_b))
    fields = {
        # The envelope choice is part of what the scene digest identifies.
        "scene": scene.digest({"envelope": args.envelope}),
        "verdict": report.verdict, "report": _jsonable(report),
    }
    svg = {"normal_segments": segs, "violations": [v.point for v in report.violations]}
    return _Outcome(lines, fields, ok=report.verdict == "holds", svg=svg)


def _cmd_harness(scene: Scene, args, seed, samples, density, rho_max, deltas) -> _Outcome:
    report = _sconvex.equivalence_harness(
        scene.desc, scene.radius_field, boundary_samples=samples,
        density=density, seed=seed, rho_max=rho_max,
    )
    v = report.verdicts
    lines = [
        f"harness: i={v['i']} ii={v['ii']} iii={v['iii']} consistent={report.consistent}",
        f"  iii parts: convexity={v['iii_parts']['capped_convexity']} "
        f"unique-projection={v['iii_parts']['unique_projection']} "
        f"thin-margin-open={v['iii_parts']['thin_margin_open']}",
    ]
    for u in report.uniqueness.violations[:3]:
        lines.append(
            f"  envelope boundary point {tuple(round(c, 6) for c in u.point)} "
            f"has {u.multiplicity} projections"
        )
    fields = {
        "verdicts": _jsonable(v), "consistent": report.consistent,
        "condition": _jsonable(report.condition),
        "uniqueness": _jsonable(report.uniqueness),
    }
    all_hold = all(val == "holds" for val in (v["i"], v["ii"], v["iii"]))
    return _Outcome(lines, fields, ok=all_hold)


def _cmd_report(scene: Scene, args, seed, samples, density, rho_max, deltas) -> _Outcome:
    lsc = _conditions.audit_lower_semicontinuity(
        scene.desc, scene.radius_field, rays=scene.samples.rays, seed=seed,
    )
    harness = _sconvex.equivalence_harness(
        scene.desc, scene.radius_field, boundary_samples=samples,
        density=density, seed=seed, rho_max=rho_max,
    )
    condition = harness.condition
    cover_rep = _conditions.verify_union_of_balls(
        scene.desc, scene.radius_field, samples=min(100, scene.samples.probes),
        delta_list=deltas, density=density, seed=seed, rho_max=rho_max,
    )
    v = harness.verdicts
    lines = [
        f"condition: {condition.verdict}",
        f"lsc audit: {lsc.verdict} ({len(lsc.discontinuities())} discontinuities flagged)",
        f"union of balls: {cover_rep.verdict} ({cover_rep.checked} points)",
        f"harness: i={v['i']} ii={v['ii']} iii={v['iii']} consistent={harness.consistent}",
    ]
    fields = {
        "verdicts": {
            "condition": condition.verdict, "lsc": lsc.verdict,
            "union_of_balls": cover_rep.verdict, **_jsonable(v),
        },
        "consistent": harness.consistent,
    }
    ok = (
        condition.verdict in ("holds", "vacuous")
        and lsc.verdict == "holds"
        and cover_rep.verdict == "holds"
        and all(val == "holds" for val in (v["i"], v["ii"], v["iii"]))
    )
    return _Outcome(lines, fields, ok=ok)


_SUBCOMMANDS = {
    "check": _cmd_check,
    "cover": _cmd_cover,
    "sconvex": _cmd_sconvex,
    "harness": _cmd_harness,
    "report": _cmd_report,
}


def _run(scene: Scene, args) -> int:
    """Time one subcommand, then emit its report and SVG and map its exit rule."""
    seed, *rest = _effective(scene, args)
    t0 = time.perf_counter()
    outcome = _SUBCOMMANDS[args.command](scene, args, seed, *rest)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": args.command, "scene": scene.digest(), "seed": seed,
        **outcome.fields,
        "timings": {f"{args.command}_s": elapsed},
    }
    _emit(scene, payload, outcome.lines, args)
    if args.svg and outcome.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_scene(scene.desc, **outcome.svg))
        print(f"svg: {args.svg}")
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extsphere",
        description="Exterior sphere condition checks, witness covers, and convexity harnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="check the extended exterior sphere condition")
    _add_common(p_check)
    p_cover = sub.add_parser("cover", help="construct witness balls for probe points")
    _add_common(p_cover)
    p_cover.add_argument("--points", default=None, help="probe points, e.g. \"(0,1) (2,3)\"")
    p_cover.add_argument("--random-points", type=int, default=20,
                         help="random exterior probes when none are given")
    p_sconvex = sub.add_parser("sconvex", help="S-convexity check")
    _add_common(p_sconvex)
    p_sconvex.add_argument("--envelope", choices=("full", "capped", "space"), default="full")
    p_harness = sub.add_parser("harness", help="three-way equivalence harness")
    _add_common(p_harness)
    p_report = sub.add_parser("report", help="combined report")
    _add_common(p_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scene = load_scene(args.scene)
    except (SceneError, OSError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(scene, args)
    except (SceneError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
