"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import spans  # noqa: E402
import teatpose.pipeline as tp_pipeline  # noqa: E402
from workloads import (WORKLOADS, build_inputs, input_digest,  # noqa: E402
                       viewpoint_design)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- inputs -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["frame-default", "stream-sessions"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    a = input_digest(build_inputs(w, 7, pool=1))
    b = input_digest(build_inputs(w, 7, pool=1))
    c = input_digest(build_inputs(w, 8, pool=1))
    assert a == b
    assert a != c


def test_viewpoint_design_has_one_sample_per_slice():
    u = viewpoint_design(np.random.default_rng(0), 8)
    assert u.shape == (8, 6)
    for col in u.T:
        assert sorted(np.floor(col * 8).astype(int)) == list(range(8))


# -- self time ---------------------------------------------------------------------


def _span(sid, name, parent, start, end, root=0):
    return spans.Span(sid, name, parent, root, start, end)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_union_of_children():
    s = [_span(0, "frame", None, 0, 100),
         _span(1, "a", 0, 10, 30),
         _span(2, "b", 0, 20, 50),       # overlaps a: union 10..50
         _span(3, "c", 1, 12, 18),
         _span(4, "d", 0, 90, 120)]      # runs past the parent: clipped
    own = spans.self_times(s)
    assert own == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 6, 4: 30}


def test_unit_self_times_sum_to_unit_span():
    s = [_span(0, "frame", None, 0, 100),
         _span(1, "mask", 0, 5, 40),
         _span(2, "poly", 1, 10, 30),
         _span(3, "pose", 0, 45, 95),
         _span(4, "tip", 3, 50, 60),
         _span(5, "tip", 3, 70, 75)]
    (row,) = spans.unit_breakdown(s, "frame")
    assert row["frame"] == 15 and row["mask"] == 15 and row["poly"] == 20
    assert row["pose"] == 35 and row["tip"] == 15
    assert spans.self_time_balance_errors(s, ["frame"]) == []
    assert spans.median_ms([row], ["mask", "poly"]) == 35 / 1e6


def test_tracer_records_nesting_and_restores_originals(monkeypatch):
    mod = types.ModuleType("toy_layers")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    def outer(x):
        return mod.inner(x) + mod.inner(1)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "toy_layers", mod)
    ticks = iter(range(0, 1000, 10))
    hooks = (("toy_layers", "outer", "outer", None),
             ("toy_layers", "inner", "inner",
              lambda a, k, out: {"out": len(out)}))
    with spans.Tracer(hooks, clock=lambda: next(ticks)) as tracer:
        assert mod.outer(2) == [2, 2, 1]
        with pytest.raises(ValueError):
            mod.inner(-1)
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.root) for s in tracer.spans]
    assert names == [("outer", None, 0), ("inner", 0, 0), ("inner", 0, 0),
                     ("inner", None, 3)]
    assert tracer.spans[1].counts == {"out": 2}
    assert tracer.spans[3].error == "ValueError"
    assert spans.self_time_balance_errors(tracer.spans, ["outer"]) == []


# -- statistics ---------------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(1000, 99.0), (999, 95.0), (200, 95.0),
                                 (100, 90.0), (99, 75.0), (40, 75.0),
                                 (20, 50.0), (19, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert bench.tail_percentile(n) == p


# -- whole runs ---------------------------------------------------------------------


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, detail = bench.run(name, seed=3, seconds=0.0, trace=trace,
                                   pool=1, setup_reps=1)
        assert result["correct"], detail["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _names(section)
        assert all(np.isfinite(v["value"])
                   for v in result["metrics"].values())
        assert "nproc" in detail["machine"]


def test_changing_answers_fail_the_run(monkeypatch):
    original = tp_pipeline.estimate_frame
    calls = []

    def drifting(cloud, masks, camera, config):
        calls.append(1)
        return original(cloud, masks, camera,
                        replace(config, tip_slab_mm=4.0 + len(calls)))

    monkeypatch.setattr(tp_pipeline, "estimate_frame", drifting)
    result, detail = bench.run("frame-default", seed=3, seconds=0.0,
                               trace=False, pool=1, setup_reps=1)
    assert not detail["checks"]["poses_digest_ok"]
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["poses_digest_ok"]["value"] == 0.0


class DroppingTracer(spans.Tracer):
    """Tracer whose traced estimate_frame loses a pose."""

    def wrap(self, name, fn, counter=None):
        traced = super().wrap(name, fn, counter)
        if name != "pipeline.frame":
            return traced

        def dropping(*args, **kwargs):
            poses, failures = traced(*args, **kwargs)
            return poses[1:], failures

        return dropping


def test_traced_answers_must_match_untraced(monkeypatch):
    monkeypatch.setattr(bench, "Tracer", DroppingTracer)
    result, detail = bench.run("frame-default", seed=3, seconds=0.0,
                               trace=True, pool=1, setup_reps=1)
    assert not detail["checks"]["traced_poses_match"]
    assert not result["correct"]


def test_failed_check_exits_nonzero(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench, "run", lambda *a, **k: (
        {"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
        {"samples_ms": []}))
    monkeypatch.setattr(bench, "RESULTS", tmp_path)
    rc = bench.main(["--workload", "frame-default", "--seed", "1",
                     "--seconds", "1"], import_s=0.0)
    assert rc == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "frame-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
