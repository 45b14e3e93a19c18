"""Span tracing of extsphere's layers from outside the program.

``Tracer.install`` wraps the public functions and methods of the layer
modules (``scene``, ``sets``, ``proximal``, ``conditions``, ``cover``,
``sconvex``, ``cli``) and rebinds every name that refers to them, so calls
made through ``from .proximal import sample_unit_normals`` and the like are
seen too.  ``uninstall`` restores the originals; nothing is wrapped unless a
tracer is installed.

Every call records a frame on a stack.  Calls of ordinary layers are kept
as spans (name, start, end, parent span) until the run ends; the hot leaf
queries of ``sets`` and ``proximal`` (hundreds of thousands of leaf
projections in one polytope check) only add to per-name counters.  Each
frame collects the time of the frames nested in it, so a name's self time
is its duration minus the time its child frames cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _nth(pos: int, key: str):
    """Size of the argument at a position or keyword (rows of an array)."""

    def size(args, kwargs, result):
        value = args[pos] if len(args) > pos else kwargs[key]
        shape = getattr(value, "shape", None)
        if shape is None:
            return len(value)
        return 1 if len(shape) == 1 else int(shape[0])

    return size


def _result_len(args, kwargs, result):
    return len(result)


def _case_tag(result):
    return f"cover.case.{result.case_tag}"


# (module, attribute, aggregated, units-of-call, tag-of-result); the span
# name is the module's short name and the function or method name.  Units
# are points queried for sets, direction rows for realization_margins and
# returned normals (the cone size) for sample_unit_normals.  Attributes
# "Class.method" wrap a method on the class.
TARGETS = (
    ("cli", "main", False, None, None),
    ("scene", "load_scene", False, None, None),
    ("sets", "ClosedSetDesc.validate", False, None, None),
    ("sets", "ClosedSetDesc.distance_many", True, _nth(1, "P"), None),
    ("sets", "ClosedSetDesc.contains_many", True, _nth(1, "P"), None),
    ("sets", "ClosedSetDesc.project", True, None, None),
    ("sets", "ClosedSetDesc.in_boundary_of_interior", True, None, None),
    ("sets", "ClosedSetDesc.ray_membership_intervals", True, None, None),
    ("proximal", "sample_unit_normals", True, _result_len, None),
    ("proximal", "realization_margins", True, _nth(2, "dirs"), None),
    ("proximal", "is_proximal_normal", True, None, None),
    ("proximal", "first_boundary_return", True, None, None),
    ("conditions", "check_extended_condition", False, None, None),
    ("conditions", "audit_lower_semicontinuity", False, None, None),
    ("conditions", "verify_union_of_balls", False, None, None),
    ("conditions", "cover_radius", False, None, None),
    ("cover", "construct_witness", False, None, _case_tag),
    ("cover", "find_interior_point_near", False, None, None),
    ("cover", "boundary_crossing", False, None, None),
    ("sconvex", "is_s_convex", False, None, None),
    ("sconvex", "in_full_envelope", False, None, None),
    ("sconvex", "in_capped_envelope", False, None, None),
    ("sconvex", "EnvelopeContext.realizable_boundary_point", False, None, None),
    ("sconvex", "check_boundary_projection_uniqueness", False, None, None),
    ("sconvex", "check_thin_margin_open", False, None, None),
)
LEAF_PROJECTION = "sets.project_point"


class Stat:
    __slots__ = ("calls", "total", "self", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.units = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent span index or -1)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.tags: Counter = Counter()
        self._stack: list[list] = []  # [name, child time, nearest kept span or -1]
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, aggregated, units, tag):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        edges = self.edges
        tags = self.tags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent[2] if parent is not None else -1
            index = owner
            if not aggregated:
                index = len(spans)
                spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat = stats[name]
                stat.calls += 1
                stat.total += duration
                stat.self += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edges[(parent[0], name)] += 1
                if not aggregated:
                    spans[index] = (name, start, end, owner)
            if units is not None:
                stat.units += units(args, kwargs, result)
            if tag is not None:
                tags[tag(result)] += 1
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each module-level alias of it."""
        import extsphere.sets as sets_mod

        for module_name, attr, aggregated, units, tag in TARGETS:
            module = sys.modules[f"extsphere.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            name = f"{module_name}.{method}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(
                    original, name, aggregated, units, tag))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, aggregated, units, tag)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "extsphere"]:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapped)
        for cls in vars(sets_mod).values():
            if isinstance(cls, type) and issubclass(cls, sets_mod.Primitive) \
                    and "project_point" in cls.__dict__:
                original = cls.__dict__["project_point"]
                self._patch(cls, "project_point", original,
                            self._wrap(original, LEAF_PROJECTION, True, None, None))
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def dump(self) -> dict:
        """Spans and aggregated counters, for writing out at the end of a run."""
        return {
            "spans": [list(s) for s in self.spans],
            "stats": {k: {s: getattr(v, s) for s in Stat.__slots__} for k, v in self.stats.items()},
            "edges": {f"{a} > {b}": n for (a, b), n in self.edges.items()},
            "tags": dict(self.tags),
        }
