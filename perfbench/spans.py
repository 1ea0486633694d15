"""In-memory span tracing around teatpose's public functions.

The tracer replaces a function where its caller module looks it up (for
example ``teatpose.pipeline.extract_masked_points``) with a wrapper that
records one span per call: name, start, end, parent span, root span and a
few input/output counts. Nothing in the package itself changes; uninstalling
restores every original.

Self time is a span's duration minus the union of its children's intervals,
so along any root the self times of the root and all its descendants add up
to the root's duration exactly (times are integer nanoseconds).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    root: int
    start: int = 0
    end: int = 0
    counts: dict = field(default_factory=dict)
    error: str = ""

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "frame": self.root, "start_ns": self.start,
                "end_ns": self.end, "counts": self.counts,
                "error": self.error}


def _in_out_counts(args, kwargs, out) -> dict:
    return {"in": len(args[0]), "out": len(out)}


def _polygon_counts(args, kwargs, out) -> dict:
    return {"in": len(args[0]), "vertices": len(args[1]),
            "out": int(out.sum())}


def _cluster_counts(args, kwargs, out) -> dict:
    return {"in": len(args[0]), "clusters": len(out),
            "largest": len(out[0]) if out else 0}


# (module, attribute, span name, counter). Each entry wraps the name in the
# module that calls it, which is where a later call looks it up.
HOOKS = (
    ("teatpose.pipeline", "run_pipeline", "pipeline.run", None),
    ("teatpose.pipeline", "render", "scene.render", None),
    ("teatpose.pipeline", "estimate_frame", "pipeline.frame", None),
    ("teatpose.pipeline", "gate_update", "pipeline.gate", None),
    ("teatpose.pipeline", "extract_masked_points", "mask.extract",
     _in_out_counts),
    ("teatpose.pipeline", "voxel_downsample", "voxel", _in_out_counts),
    ("teatpose.pipeline", "estimate_teat_pose", "pose", None),
    ("teatpose.mask", "points_in_polygon", "mask.polygon", _polygon_counts),
    ("teatpose.pose", "euclidean_cluster", "cluster", _cluster_counts),
    ("teatpose.pose", "estimate_normals", "axes.normals", None),
    ("teatpose.pose", "normals_axis", "axes.axis", None),
    ("teatpose.pose", "pca_axis", "axes.axis", None),
    ("teatpose.pose", "locate_tip", "pose.tip", None),
    ("teatpose.scene", "render", "scene.render", None),
    ("teatpose.scene", "clean_region", "contour.clean", None),
    ("teatpose.scene", "trace_boundary", "contour.trace", None),
)


class Tracer:
    """Records spans for every hooked call while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions even if the traced code raised.
    """

    def __init__(self, hooks=HOOKS, clock=time.perf_counter_ns):
        self.hooks = hooks
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            root = sid if parent is None else self.spans[parent].root
            span = Span(sid, name, parent, root)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = self.clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.end = self.clock()
                span.error = type(exc).__name__
                raise
            else:
                span.end = self.clock()
            finally:
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, counter in self.hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end] intervals."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {s.sid: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in kids[s.sid] if c.end > s.start
                               and c.start < s.end)
        out[s.sid] = (s.end - s.start) - covered
    return out


def subtree(span: Span, kids) -> list[Span]:
    out, todo = [], [span]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids[s.sid])
    return out


def unit_breakdown(spans, unit: str) -> list[dict]:
    """Per span named `unit`: self time by span name over its subtree.

    Each entry maps span name -> summed self time in ns, plus "_total" for
    the unit span's own duration and "_spans" for the subtree's spans.
    """
    kids = children_of(spans)
    own = self_times(spans)
    rows = []
    for s in spans:
        if s.name != unit:
            continue
        members = subtree(s, kids)
        row: dict = {"_total": s.end - s.start, "_spans": members}
        for m in members:
            row[m.name] = row.get(m.name, 0) + own[m.sid]
        rows.append(row)
    return rows


def self_time_balance_errors(spans, units) -> list[str]:
    """Units whose subtree self times do not add up to the unit duration."""
    errors = []
    for unit in units:
        for i, row in enumerate(unit_breakdown(spans, unit)):
            parts = sum(v for k, v in row.items() if not k.startswith("_"))
            if parts != row["_total"]:
                errors.append(f"{unit}[{i}]: self times sum to {parts} ns, "
                              f"span is {row['_total']} ns")
    return errors


def median_ms(rows, names) -> float:
    """Median over units of the summed self time of `names`, in ms."""
    if not rows:
        return float("nan")
    return median(sum(row.get(n, 0) for n in names) for row in rows) / 1e6
