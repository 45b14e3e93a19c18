"""Minimal SVG 1.1 rendering of scenes and check overlays.

Fixed palette: set silhouette gray (#c8d1da fill, #57606a stroke), witness
balls green (#2da44e), violations red (#cf222e), normal segments blue
(#0969da).  The viewBox derives from the scene bounding box; the y axis is
flipped so that screen-up is geometric-up.  Three-dimensional scenes render
their xy projection.
"""

from __future__ import annotations

import math

import numpy as np

from .sets import (
    AffineSubspace,
    BallComplement,
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    HalfSpace,
    Intersection,
    Slab,
)

SET_FILL = "#c8d1da"
SET_STROKE = "#57606a"
WITNESS_COLOR = "#2da44e"
VIOLATION_COLOR = "#cf222e"
SEGMENT_COLOR = "#0969da"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _clip_halfplane(poly, normal, offset):
    """Sutherland-Hodgman clip of a polygon against <n, x> <= offset."""
    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        g_cur = cur[0] * normal[0] + cur[1] * normal[1] - offset
        g_nxt = nxt[0] * normal[0] + nxt[1] * normal[1] - offset
        if g_cur <= 0.0:
            out.append(cur)
        if (g_cur <= 0.0) != (g_nxt <= 0.0):
            t = g_cur / (g_cur - g_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _poly_path(poly) -> str:
    if not poly:
        return ""
    parts = [f"M {_fmt(poly[0][0])} {_fmt(poly[0][1])}"]
    parts.extend(f"L {_fmt(p[0])} {_fmt(p[1])}" for p in poly[1:])
    return " ".join(parts) + " Z"


class SvgCanvas:
    def __init__(self, desc: ClosedSetDesc, width: int = 640):
        lo, hi = desc.box
        self.lo = (float(lo[0]), float(lo[1]))
        self.hi = (float(hi[0]), float(hi[1]))
        span_x = self.hi[0] - self.lo[0]
        span_y = self.hi[1] - self.lo[1]
        self.width = width
        self.height = int(round(width * span_y / span_x))
        self.elements: list[str] = []
        self.stroke_width = 0.004 * max(span_x, span_y)
        # Flip y: viewBox in geometry coordinates, group scales y by -1.
        self.viewbox = f"{_fmt(self.lo[0])} {_fmt(-self.hi[1])} {_fmt(span_x)} {_fmt(span_y)}"

    def add(self, element: str):
        self.elements.append(element)

    def circle(self, center, radius, stroke, fill="none", width_mult=1.0, dash=None, opacity=1.0):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<circle cx="{_fmt(center[0])}" cy="{_fmt(-center[1])}" r="{_fmt(radius)}" '
            f'stroke="{stroke}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke-width="{_fmt(self.stroke_width * width_mult)}"{dash_attr}/>'
        )

    def dot(self, p, color, radius_mult=1.6):
        self.add(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" '
            f'r="{_fmt(self.stroke_width * radius_mult)}" fill="{color}"/>'
        )

    def segment(self, p, q, color, width_mult=1.0):
        self.add(
            f'<line x1="{_fmt(p[0])}" y1="{_fmt(-p[1])}" x2="{_fmt(q[0])}" y2="{_fmt(-q[1])}" '
            f'stroke="{color}" stroke-width="{_fmt(self.stroke_width * width_mult)}"/>'
        )

    def path(self, d, stroke, fill, opacity=1.0, fill_rule="nonzero"):
        self.add(
            f'<path d="{d}" stroke="{stroke}" fill="{fill}" fill-opacity="{opacity}" '
            f'fill-rule="{fill_rule}" stroke-width="{_fmt(self.stroke_width)}"/>'
        )

    def to_string(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{self.height}" viewBox="{self.viewbox}">\n'
        )
        body = "\n".join("  " + el for el in self.elements)
        return head + body + "\n</svg>\n"


def _render_leaf(canvas: SvgCanvas, leaf, box_poly):
    flip = lambda poly: [(p[0], -p[1]) for p in poly]  # noqa: E731 - local helper
    if isinstance(leaf, HalfSpace):
        poly = _clip_halfplane(box_poly, leaf.normal[:2], leaf.offset)
        canvas.path(_poly_path(flip(poly)), SET_STROKE, SET_FILL, opacity=0.55)
    elif isinstance(leaf, ClosedBall):
        canvas.circle(leaf.center[:2], leaf.radius, SET_STROKE, fill=SET_FILL, opacity=0.55)
    elif isinstance(leaf, BallComplement):
        outer = _poly_path(flip(box_poly))
        c = leaf.center
        r = leaf.radius
        hole = (
            f"M {_fmt(c[0] - r)} {_fmt(-c[1])} "
            f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(c[0] + r)} {_fmt(-c[1])} "
            f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(c[0] - r)} {_fmt(-c[1])} Z"
        )
        canvas.path(outer + " " + hole, SET_STROKE, SET_FILL, opacity=0.55, fill_rule="evenodd")
    elif isinstance(leaf, Slab):
        poly = _clip_halfplane(box_poly, leaf.normal[:2], leaf.hi)
        poly = _clip_halfplane(poly, (-leaf.normal[0], -leaf.normal[1]), -leaf.lo)
        canvas.path(_poly_path(flip(poly)), SET_STROKE, SET_FILL, opacity=0.55)
    elif isinstance(leaf, AffineSubspace):
        d = leaf.basis[0][:2]
        p = leaf.point[:2]
        span = 4.0 * max(abs(canvas.hi[0] - canvas.lo[0]), abs(canvas.hi[1] - canvas.lo[1]))
        canvas.segment(p - span * d, p + span * d, SET_STROKE, width_mult=1.4)
    elif isinstance(leaf, FinitePointSet):
        for p in leaf.points:
            canvas.dot(p[:2], SET_STROKE, radius_mult=2.0)
    elif isinstance(leaf, Intersection):
        for child in leaf.children:
            _render_leaf(canvas, child, box_poly)


def render_scene(
    desc: ClosedSetDesc,
    witness_balls=(),
    witness_directions=(),
    violations=(),
    normal_segments=(),
    probe_points=(),
    width: int = 640,
) -> str:
    """Render the set silhouette plus overlays into an SVG document.

    witness_balls: iterables of (center, radius); witness_directions:
    (base, direction, length); violations: points or (p, q) segments;
    normal_segments: (base, direction, length).
    """
    canvas = SvgCanvas(desc, width=width)
    lo, hi = canvas.lo, canvas.hi
    box_poly = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    canvas.add(
        f'<rect x="{_fmt(lo[0])}" y="{_fmt(-hi[1])}" width="{_fmt(hi[0]-lo[0])}" '
        f'height="{_fmt(hi[1]-lo[1])}" fill="#ffffff"/>'
    )
    root = desc.root
    leaves = root.children if hasattr(root, "children") else [root]
    for leaf in leaves:
        _render_leaf(canvas, leaf, box_poly)
    for base, direction, length in normal_segments:
        base = np.asarray(base, dtype=float)
        direction = np.asarray(direction, dtype=float)
        if math.isfinite(length) and length > 0:
            canvas.segment(base[:2], (base + length * direction)[:2], SEGMENT_COLOR)
    for center, radius in witness_balls:
        canvas.circle(np.asarray(center)[:2], radius, WITNESS_COLOR, width_mult=1.5)
        canvas.dot(np.asarray(center)[:2], WITNESS_COLOR, radius_mult=1.0)
    for base, direction, length in witness_directions:
        base = np.asarray(base, dtype=float)
        direction = np.asarray(direction, dtype=float)
        canvas.segment(base[:2], (base + length * direction)[:2], WITNESS_COLOR, width_mult=1.5)
    for item in violations:
        arr = np.asarray(item, dtype=float)
        if arr.ndim == 1:
            canvas.dot(arr[:2], VIOLATION_COLOR, radius_mult=2.2)
        else:
            canvas.segment(arr[0][:2], arr[1][:2], VIOLATION_COLOR, width_mult=1.8)
    for p in probe_points:
        canvas.dot(np.asarray(p)[:2], "#8c959f", radius_mult=0.9)
    return canvas.to_string()
