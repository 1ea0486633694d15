"""Benchmark runner: one workload, one seed, one closed-loop caller.

Untraced runs (trace 0) print the end-to-end metrics; traced runs (trace 1)
print the per-layer metrics. Every run checks its outputs and exits with
code 1 when a check fails. See README.md in this directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import teatpose
import teatpose.pipeline as tp_pipeline
from spans import (Tracer, median_ms, self_time_balance_errors,
                   unit_breakdown)
from workloads import WORKLOADS, Frame, build_inputs, input_digest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SUCCESS_MM = 5.0
SETUP_REPS = 3
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least 10 samples above it."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def git_revision() -> str | None:
    """Commit id read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 of the package sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted(Path(teatpose.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "thread_caps": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_THREADS")}}


# -- calling the package and scoring its answers --------------------------------


def call(workload, item):
    """One closed-loop call into the package."""
    if isinstance(item, Frame):
        return tp_pipeline.estimate_frame(item.cloud, item.masks, item.camera,
                                          workload.pose)
    return tp_pipeline.run_pipeline(item.scenes,
                                    tp_pipeline.PipelineConfig(
                                        pose=workload.pose))


def output_digest(out) -> str:
    h = hashlib.sha256()
    if isinstance(out, tuple):
        poses, failures = out
        h.update(json.dumps([p.to_dict() for p in poses]).encode())
        h.update(json.dumps(failures).encode())
    else:
        h.update(json.dumps(out.events, sort_keys=True).encode())
        h.update(json.dumps([p.to_dict() for p in out.poses]).encode())
    return h.hexdigest()


def _angle_deg(a, b) -> float:
    return float(np.degrees(np.arccos(np.clip(a @ b, -1.0, 1.0))))


def score(item, out) -> dict:
    """Outcome of every attempted teat: success, TeatPoseError or no mask.

    Each pose is matched to the nearest ground-truth tip. Returns counts
    plus the tip and axis errors of every pose.
    """
    n_teats = len(item.gt_tips)
    if isinstance(out, tuple):
        poses, failures = out
        n_masks = len(item.masks)
        attempted = n_teats
        missing = n_teats - n_masks
        failed = Counter(err for _, err in failures)
        accounted = len(poses) + len(failures) == n_masks
        extra = {}
    else:
        poses = out.poses
        geo_frames = {e["frame"] for e in out.events
                      if e["event"] == "frame_done"}
        n_masks = sum(e["n_masks"] for e in out.events
                      if e["event"] == "masks_ready"
                      and e["frame"] in geo_frames)
        attempted = n_teats * len(geo_frames)
        missing = attempted - n_masks
        failed = Counter(e["error"] for e in out.events
                         if e["event"] == "pose_failed")
        accounted = len(poses) + sum(failed.values()) == n_masks
        s = out.summary
        extra = {"frames_accepted": s["frames_accepted"],
                 "geometry_frames": len(geo_frames),
                 "sim_fps": s["sim_fps"], "all_gated_us": s["all_gated_us"],
                 "tracks": len(s["tracks"])}
    tip_err, axis_err = [], []
    for p in poses:
        d = np.linalg.norm(item.gt_tips - p.tip_mm, axis=1)
        j = int(np.argmin(d))
        tip_err.append(float(d[j]))
        axis_err.append(_angle_deg(p.axis, item.gt_axes[j]))
    return {"attempted": attempted, "posed": len(poses),
            "success": sum(e < SUCCESS_MM for e in tip_err),
            "failed": dict(failed), "missing": missing,
            "accounted": accounted, "tip_err": tip_err,
            "axis_err": axis_err, **extra}


# -- the closed loop -------------------------------------------------------------


class Loop:
    """Closed-loop caller: the next call starts only after the previous one
    returned. Checks that every repeat of an item yields the same answer,
    traced or not."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.ref: dict[int, str] = {}
        self.scores: dict[int, dict] = {}
        self.mismatches: list[tuple[int, bool]] = []

    def check(self, k: int, out, traced: bool = False) -> bool:
        d = output_digest(out)
        if k not in self.ref:
            self.ref[k] = d
            self.scores[k] = score(self.items[k], out)
        elif self.ref[k] != d:
            self.mismatches.append((k, traced))
            return False
        return True

    def run(self, seconds: float, tracer: Tracer | None = None):
        """Call for `seconds`, and for at least one pass over the pool.

        With a tracer, every other call runs traced (at least one); the
        parity flips each pass so items are seen both ways, and machine
        speed drift hits traced and untraced calls alike.

        Returns (item index, wall time in ns, traced) per call and the
        number of calls whose output failed its check.
        """
        samples, bad = [], 0
        n = len(self.items)
        min_calls = n if tracer is None else max(n, 2)
        t_end = time.perf_counter() + seconds
        i = 0
        while i < min_calls or time.perf_counter() < t_end:
            k = i % n
            traced = tracer is not None and (k + i // n) % 2 == 1
            with tracer if traced else nullcontext():
                t0 = time.perf_counter_ns()
                out = call(self.workload, self.items[k])
                t1 = time.perf_counter_ns()
            samples.append((k, t1 - t0, traced))
            if not self.check(k, out, traced):
                bad += 1
            i += 1
        return samples, bad


def per_frame_ms(workload, samples, scores) -> list[float]:
    """Wall time per frame that reaches geometry.

    A frame workload's sample is one estimate_frame call. A stream sample
    is one session; it is divided by the frames the session rendered (each
    of which went through geometry), so both read as ms per frame.
    """
    if workload.kind == "frame":
        return [ns / 1e6 for _, ns, _ in samples]
    return [ns / 1e6 / scores[k]["frames_accepted"] for k, ns, _ in samples]


def accuracy(scores: dict) -> dict:
    rows = [scores[k] for k in sorted(scores)]
    tip = np.array([e for r in rows for e in r["tip_err"]])
    axis = np.array([e for r in rows for e in r["axis_err"]])
    attempted = sum(r["attempted"] for r in rows)
    failed = Counter()
    for r in rows:
        failed.update(r["failed"])
    return {
        "teats_attempted": attempted,
        "teats_posed": sum(r["posed"] for r in rows),
        "teats_success": sum(r["success"] for r in rows),
        "teats_missing_mask": sum(r["missing"] for r in rows),
        "failures_by_class": dict(sorted(failed.items())),
        "fail_rate": sum(failed.values()) / attempted,
        "success_rate": sum(r["success"] for r in rows) / attempted,
        "tip_err_mm.mean": float(tip.mean()) if len(tip) else None,
        "tip_err_mm.p50": float(np.percentile(tip, 50)) if len(tip) else None,
        "tip_err_mm.p90": float(np.percentile(tip, 90)) if len(tip) else None,
        "axis_err_deg.mean": float(axis.mean()) if len(axis) else None,
        "axis_err_deg.p50": (float(np.percentile(axis, 50))
                             if len(axis) else None),
        "accounted": all(r["accounted"] for r in rows),
    }


def timing(values: list[float]) -> dict:
    tail = tail_percentile(len(values))
    return {"n": len(values), "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
            "tail_percentile": tail,
            "tail": (float(np.percentile(values, tail))
                     if tail is not None else None)}


# -- per-layer metrics from the traced run ----------------------------------------

FRAME_LAYERS = {
    "mask.extract_ms": ["mask.extract"], "mask.polygon_ms": ["mask.polygon"],
    "voxel.ms": ["voxel"], "cluster.ms": ["cluster"],
    "axes.normals_ms": ["axes.normals"], "axes.axis_ms": ["axes.axis"],
    "pose.tip_ms": ["pose.tip"], "pose.self_ms": ["pose"],
    "pipeline.frame_self_ms": ["pipeline.frame"],
}
RENDER_LAYERS = {"scene.render_ms": ["scene.render"],
                 "contour.clean_ms": ["contour.clean"],
                 "contour.trace_ms": ["contour.trace"]}
SESSION_LAYERS = {"pipeline.gate_ms": ["pipeline.gate"],
                  "pipeline.run_self_ms": ["pipeline.run"]}
BALANCED_UNITS = ("pipeline.frame", "scene.render", "pipeline.run")
RATIOS = ("mask.keep_ratio", "cluster.largest_share",
          "axes.normals_calls_per_teat", "pipeline.render_useful_ratio")


def _count(spans, name, key="in"):
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _n(spans, name):
    return sum(1 for s in spans if s.name == name)


def _ratio(num, den):
    return num / den if den else float("nan")


def layer_metrics(spans, items_estimated: int) -> tuple[dict, dict]:
    """(per-layer metrics printed by the traced run, stream-only extras).

    items_estimated is the number of distinct pool frames the traced loop
    estimated, the useful share of a frame workload's traced re-render.
    """
    frames = unit_breakdown(spans, "pipeline.frame")
    renders = unit_breakdown(spans, "scene.render")
    runs = unit_breakdown(spans, "pipeline.run")
    m = {k: median_ms(frames, v) for k, v in FRAME_LAYERS.items()}
    m.update({k: median_ms(renders, v) for k, v in RENDER_LAYERS.items()})

    def per_frame(fn):
        return float(median(fn(r["_spans"]) for r in frames))

    m["mask.points_projected"] = per_frame(
        lambda s: _count(s, "mask.extract"))
    m["mask.polygon_candidates"] = per_frame(
        lambda s: _count(s, "mask.polygon"))
    m["mask.polygon_edge_tests"] = per_frame(lambda s: sum(
        x.counts.get("in", 0) * x.counts.get("vertices", 0)
        for x in s if x.name == "mask.polygon"))
    m["mask.keep_ratio"] = per_frame(lambda s: _ratio(
        _count(s, "mask.extract", "out"), _count(s, "mask.extract")))
    m["voxel.points_out"] = per_frame(lambda s: _count(s, "voxel", "out"))
    m["cluster.largest_share"] = per_frame(lambda s: _ratio(
        _count(s, "cluster", "largest"), _count(s, "cluster")))
    m["axes.normals_calls_per_teat"] = per_frame(
        lambda s: _ratio(_n(s, "axes.normals"), _n(s, "pose")))
    if runs:
        m["pipeline.frames_rendered"] = float(median(
            _n(r["_spans"], "scene.render") for r in runs))
        m["pipeline.render_useful_ratio"] = _ratio(
            _n(spans, "pipeline.frame"), _n(spans, "scene.render"))
        extras = {k: median_ms(runs, v) for k, v in SESSION_LAYERS.items()}
    else:
        # Frame workloads render their pool once in set-up; every rendered
        # frame is then estimated.
        m["pipeline.frames_rendered"] = float(len(renders))
        m["pipeline.render_useful_ratio"] = _ratio(items_estimated,
                                                   len(renders))
        extras = {}
    return m, extras


# -- one run -----------------------------------------------------------------------


def setup(workload, seed, reps, pool=None):
    """Build the inputs `reps` times; every build must be identical."""
    times, digests, items = [], [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        items = build_inputs(workload, seed, pool)
        times.append(time.perf_counter() - t0)
        digests.append(input_digest(items))
    return items, times, digests


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, pool: int | None = None,
        setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one workload. Returns (result line, detail record)."""
    workload = WORKLOADS[workload_name]
    checks: dict[str, bool] = {}
    items, setup_times, digests = setup(workload, seed,
                                        1 if trace else setup_reps, pool)
    checks["inputs_repeat"] = len(set(digests)) == 1
    if workload.kind == "frame":
        checks["cloud_in_front"] = all(
            bool(np.all(f.cloud.points[:, 2] > 0)) for f in items)
    loop = Loop(workload, items)
    loop.check(0, call(workload, items[0]))      # warm-up, untimed

    tracer = Tracer() if trace else None
    if tracer is not None and workload.kind == "frame":
        # Trace the input build too (render, contour); it must reproduce
        # the untraced inputs exactly.
        with tracer:
            rebuilt = build_inputs(workload, seed, pool)
        checks["traced_inputs_match"] = input_digest(rebuilt) == digests[0]
    samples, bad = loop.run(seconds, tracer)
    plain_ms = per_frame_ms(workload, [s for s in samples if not s[2]],
                            loop.scores)

    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "pool": len(items),
              "input_digest": digests[0], "machine": machine(),
              "git_revision": git_revision(), "source_sha256":
              source_digest(), "import_s": import_s,
              "setup_s_reps": setup_times,
              "frame_ms": timing(plain_ms), "samples_ms": plain_ms}
    if workload.kind == "stream":
        detail["session_s"] = timing([ns / 1e9 for _, ns, t in samples
                                      if not t])
        sessions = [loop.scores[k] for k in sorted(loop.scores)]
        checks["sim_fps_5"] = all(s["sim_fps"] is not None
                                  and abs(s["sim_fps"] - 5.0) < 1e-9
                                  for s in sessions)
        checks["all_tracks_gated"] = all(
            s["all_gated_us"] is not None
            and s["tracks"] == len(items[0].gt_tips) for s in sessions)
        detail["sim_fps"] = sorted({s["sim_fps"] for s in sessions})
        gated = [s["all_gated_us"] / 1e6 for s in sessions
                 if s["all_gated_us"] is not None]
        detail["gate_latency_s"] = median(gated) if gated else None
    acc = accuracy(loop.scores)
    detail["accuracy"] = acc
    checks["teats_accounted"] = acc["accounted"]
    checks["poses_digest_ok"] = not loop.mismatches
    checks["accuracy_floor"] = (acc["success_rate"] >= 0.5
                                and acc["tip_err_mm.p50"] is not None
                                and acc["tip_err_mm.p50"] < SUCCESS_MM)

    if tracer is None:
        metrics = {
            "setup_s": (import_s + median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "frame_ms.p90": (detail["frame_ms"]["p90"], "ms"),
            "tip_err_mm.mean": (acc["tip_err_mm.mean"], "mm"),
            "success_rate": (acc["success_rate"], "ratio"),
            "poses_digest_ok": (float(checks["poses_digest_ok"]), "bool"),
        }
    else:
        checks["traced_poses_match"] = not any(t for _, t in loop.mismatches)
        errors = self_time_balance_errors(tracer.spans, BALANCED_UNITS)
        checks["self_times_balance"] = not errors
        traced = [s for s in samples if s[2]]
        layers, extras = layer_metrics(tracer.spans,
                                       len({k for k, _, _ in traced}))
        metrics = {k: (v, "ms" if k.endswith(("_ms", ".ms")) else
                       "ratio" if k in RATIOS else "count")
                   for k, v in layers.items()}
        traced_ms = timing(per_frame_ms(workload, traced, loop.scores))
        untraced_p50 = detail["frame_ms"]["p50"]
        metrics["trace.untraced_frame_ms"] = (untraced_p50, "ms")
        metrics["trace.traced_frame_ms"] = (traced_ms["p50"], "ms")
        metrics["trace.overhead_ms"] = (traced_ms["p50"] - untraced_p50, "ms")
        detail["traced_frame_ms"] = traced_ms
        detail["session_layers_ms"] = extras
        detail["spans"] = len(tracer.spans)
        detail["self_time_errors"] = errors[:10]
        write_spans(workload, seed, tracer.spans)

    detail["checks"] = checks
    detail["calls"] = {"attempted": len(samples), "failed_check": bad}
    correct = all(checks.values()) and bad == 0
    result = {"correct": correct, "attempted": len(samples), "failed": bad,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, detail


def write_spans(workload, seed, spans) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans_{workload.name}_seed{seed}.jsonl"
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s.to_dict()) + "\n")


def main(argv, import_s: float) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s=import_s)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(RESULTS / name, "w") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1)
    detail.pop("samples_ms")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1
