"""Tests for the experiment drivers.

Every driver re-derives its summary from the raw CSV it just wrote, so these
tests check the emitted artifacts as much as the returned dicts. Determinism
is asserted at the byte level for everything except the wall-clock benchmark,
whose timings are the payload.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

import teatpose.experiments as tp_experiments
from teatpose.camera import CameraModel
from teatpose.errors import CurveFitError, InvalidInputError
from teatpose.experiments import (run_camera_curve, run_rate_bench,
                                  run_repeatability)
from teatpose.pipeline import static_scene_stream
from teatpose.reports import read_csv
from teatpose.scene import (MAX_CAMERA_DISTANCE_MM, NoiseModel, SceneSpec,
                            TeatSpec, default_scene, orbbec_like_noise)

_SMALL_CAMERA = CameraModel(fx=142.5, fy=142.5, cx=80.0, cy=60.0,
                            width=160, height=120)


def _hidden_teat_scene():
    """Camera above the udder: the teat is fully occluded, no masks render."""
    teat = TeatSpec(base_mm=np.array([0.0, 0.0, 562.0]),
                    axis=np.array([0.0, 0.0, -1.0]))
    camera = CameraModel.look_at((100.0, -150.0, 1400.0), (0.0, 0.0, 650.0))
    return SceneSpec(teats=(teat,), udder_center_mm=np.array([0.0, 0.0, 650.0]),
                     udder_semi_axes_mm=np.array([170.0, 130.0, 100.0]),
                     camera=camera)


class TestRunRepeatability:

    def test_noiseless_static_view_has_zero_spread(self, tmp_path):
        scene = default_scene(seed=0)
        summary = run_repeatability(scene, cycles=2, out_dir=tmp_path,
                                    tilt_deg=0.0, shift_mm=0.0)
        assert summary["cycles"] == 2
        assert summary["samples"] == 8
        assert summary["success_rate"] == 1.0
        for teat_id, stats in summary["per_teat"].items():
            assert stats["std_mm"] == 0.0
            assert stats["mean_mm"] < 1.0
        for name in ("repeatability_raw.csv", "repeatability_summary.csv",
                     "repeatability_T1.svg"):
            assert os.path.exists(tmp_path / name)

    def test_summary_matches_raw_table(self, tmp_path):
        scene = default_scene(seed=1, noise=orbbec_like_noise())
        summary = run_repeatability(scene, cycles=3, out_dir=tmp_path)
        _, raw = read_csv(tmp_path / "repeatability_raw.csv")
        ok_errors = np.array([float(r[3]) for r in raw if r[2] == "1"])
        assert len(ok_errors) == summary["samples"]
        assert summary["mean_mm"] == pytest.approx(ok_errors.mean())
        successes = int((ok_errors < 5.0).sum())
        assert summary["success_rate"] == successes / (3 * 4)

    def test_reruns_byte_identical(self, tmp_path):
        scene = default_scene(seed=5, noise=orbbec_like_noise())
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_repeatability(scene, cycles=2, out_dir=dir_a)
        run_repeatability(scene, cycles=2, out_dir=dir_b)
        for name in ("repeatability_raw.csv", "repeatability_summary.csv",
                     "repeatability_T1.svg"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unseen_teat_counts_as_failure(self, tmp_path):
        summary = run_repeatability(_hidden_teat_scene(), cycles=1,
                                    out_dir=tmp_path, tilt_deg=0.0,
                                    shift_mm=0.0)
        assert summary["samples"] == 0
        assert summary["success_rate"] == 0.0
        _, raw = read_csv(tmp_path / "repeatability_raw.csv")
        assert [r[6] for r in raw] == ["no_mask"]

    def test_failed_teat_is_an_ok_0_row(self, tmp_path, monkeypatch):
        # estimate_frame fails T2 in every cycle: its rows say why, and it
        # counts against the success rate but adds no error sample.
        estimate = tp_experiments.estimate_frame

        def fail_t2(cloud, masks, camera, config):
            poses, failures = estimate(
                cloud, [m for m in masks if m.teat_id != "T2"], camera,
                config)
            return poses, failures + [("T2", "InsufficientPointsError")]

        monkeypatch.setattr(tp_experiments, "estimate_frame", fail_t2)
        summary = run_repeatability(default_scene(seed=0), cycles=2,
                                    out_dir=tmp_path, tilt_deg=0.0,
                                    shift_mm=0.0)
        _, raw = read_csv(tmp_path / "repeatability_raw.csv")
        assert [(r[0], r[1], r[5], r[6]) for r in raw if r[2] == "0"] == [
            (str(cycle), "T2", "0", "InsufficientPointsError")
            for cycle in range(2)]
        assert summary["samples"] == 6
        assert summary["success_rate"] == 6 / 8
        assert summary["per_teat"]["T2"]["success_rate"] == 0.0
        assert summary["per_teat"]["T1"]["success_rate"] == 1.0

    def test_pose_is_scored_against_its_own_teat(self, tmp_path,
                                                 monkeypatch):
        # T1's pose lands on T2's tip: it is a T1 miss with its true error,
        # never a near-perfect T2 row beside a T1 no_mask row.
        scene = default_scene(seed=0)
        t1, t2 = (t.tip_mm for t in scene.teats[:2])
        estimate = tp_experiments.estimate_frame

        def move_t1(cloud, masks, camera, config):
            poses, failures = estimate(cloud, masks, camera, config)
            return [replace(p, tip_mm=t2) if p.teat_id == "T1" else p
                    for p in poses], failures

        monkeypatch.setattr(tp_experiments, "estimate_frame", move_t1)
        summary = run_repeatability(scene, cycles=1, out_dir=tmp_path,
                                    tilt_deg=0.0, shift_mm=0.0)
        _, raw = read_csv(tmp_path / "repeatability_raw.csv")
        t1_rows = [r for r in raw if r[1] == "T1"]
        assert [(r[2], r[6]) for r in t1_rows] == [("1", "")]
        assert float(t1_rows[0][3]) == pytest.approx(np.linalg.norm(t2 - t1))
        assert [r[1] for r in raw if r[1] == "T2"] == ["T2"]
        assert summary["samples"] == 4
        assert summary["success_rate"] == 3 / 4
        assert summary["per_teat"]["T1"]["success_rate"] == 0.0

    def test_zero_cycles_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            run_repeatability(default_scene(), cycles=0, out_dir=tmp_path)

    def test_negative_tilt_rejected_before_out_dir(self, tmp_path):
        # numpy's uniform(-tilt, tilt) would raise a bare ValueError.
        out = tmp_path / "out"
        with pytest.raises(InvalidInputError, match="tilt_deg"):
            run_repeatability(default_scene(), cycles=1, out_dir=out,
                              tilt_deg=-5.0)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tilt_deg", "shift_mm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_jitter_rejected_before_out_dir(self, key, value,
                                                        tmp_path):
        # numpy's uniform would raise OverflowError.
        out = tmp_path / "out"
        with pytest.raises(InvalidInputError, match=key):
            run_repeatability(default_scene(), cycles=1, out_dir=out,
                              **{key: value})
        assert not out.exists()


    # Huge finite jitter: numpy's uniform raised OverflowError at ~9e307,
    # and a 1e200 mm shift overflowed SceneSpec's inside-udder check.
    @pytest.mark.parametrize("key, value", [
        ("tilt_deg", 180.5), ("tilt_deg", 1e308),
        ("shift_mm", MAX_CAMERA_DISTANCE_MM * 1.001), ("shift_mm", 1e200),
        ("shift_mm", 1e308),
    ])
    def test_huge_jitter_rejected_before_out_dir(self, key, value, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(InvalidInputError, match=key):
            run_repeatability(default_scene(), cycles=1, out_dir=out,
                              **{key: value})
        assert not out.exists()

    def test_jitter_bounds_accepted(self, tmp_path):
        summary = run_repeatability(default_scene(), cycles=1,
                                    out_dir=tmp_path, tilt_deg=180.0)
        assert summary["cycles"] == 1


class TestRunCameraCurve:

    def test_zero_noise_recovers_zero_curve(self, tmp_path):
        out = run_camera_curve({"zero": NoiseModel()}, tmp_path, conditions=3,
                               camera=_SMALL_CAMERA)
        assert out["zero"]["a_mm"] == 0.0
        assert out["zero"]["b_mm_per_m2"] == 0.0
        assert out["zero"]["max_error_at_1m_mm"] == 0.0
        _, raw = read_csv(tmp_path / "camera_curve_raw.csv")
        assert len(raw) == 3 * 7
        assert all(r[4] == "0.000000" for r in raw)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_master_seed_must_be_non_negative_integer(self, seed, tmp_path):
        with pytest.raises(InvalidInputError, match="master_seed"):
            run_camera_curve({"none": NoiseModel()}, tmp_path,
                             master_seed=seed)

    def test_known_curve_recovered_within_15_percent(self, tmp_path):
        out = run_camera_curve(
            {"known": NoiseModel(a_mm=1.0, b_mm_per_m2=3.0)}, tmp_path,
            conditions=100, master_seed=0, camera=_SMALL_CAMERA)
        assert abs(out["known"]["a_mm"] - 1.0) <= 0.15
        assert abs(out["known"]["b_mm_per_m2"] - 3.0) <= 0.45

    def test_summary_mirrors_returned_dict(self, tmp_path):
        out = run_camera_curve({"p": NoiseModel(a_mm=0.5)}, tmp_path,
                               conditions=4, camera=_SMALL_CAMERA)
        _, rows = read_csv(tmp_path / "camera_curve_summary.csv")
        assert rows[0][0] == "p"
        assert float(rows[0][2]) == pytest.approx(out["p"]["a_mm"], abs=1e-6)
        assert os.path.exists(tmp_path / "camera_curve.svg")

    def test_reruns_byte_identical(self, tmp_path):
        presets = {"n": NoiseModel(a_mm=0.3, b_mm_per_m2=2.0)}
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        os.makedirs(dir_a)
        os.makedirs(dir_b)
        run_camera_curve(presets, dir_a, conditions=3, master_seed=7,
                         camera=_SMALL_CAMERA)
        run_camera_curve(presets, dir_b, conditions=3, master_seed=7,
                         camera=_SMALL_CAMERA)
        for name in ("camera_curve_raw.csv", "camera_curve_summary.csv",
                     "camera_curve.svg"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unmeasurable_distance_is_skipped(self, tmp_path, caplog):
        # Half the returns dropped: the 1400 mm target keeps ~50 of the 100
        # points a measurement needs; the nearer ones keep hundreds.
        out = run_camera_curve(
            {"drop": NoiseModel(a_mm=0.2, dropout_rate=0.5)}, tmp_path,
            distances_mm=(200, 400, 600, 1400), conditions=5,
            camera=_SMALL_CAMERA)
        _, raw = read_csv(tmp_path / "camera_curve_raw.csv")
        assert len(raw) == 5 * 3
        assert {float(r[2]) for r in raw} == {200.0, 400.0, 600.0}
        assert caplog.messages == ["preset drop: too few points at 1400 mm"] * 5
        assert np.isfinite(out["drop"]["max_error_at_1m_mm"])

    @pytest.mark.parametrize("dropout, kept", [(0.9999, 0), (0.9, 2)])
    def test_lost_target_names_the_preset(self, dropout, kept, tmp_path):
        # It used to raise a sample-shape error (none kept) or an error that
        # named no preset (one or two kept).
        presets = {"fine": NoiseModel(a_mm=0.2),
                   "drop": NoiseModel(a_mm=0.2, dropout_rate=dropout)}
        with pytest.raises(CurveFitError,
                           match=f"preset 'drop': {kept} of 7 distances "
                                 "kept a measurable target"):
            run_camera_curve(presets, tmp_path, conditions=2,
                             camera=_SMALL_CAMERA)

    def test_failed_run_writes_no_file(self, tmp_path):
        # A lost preset raises before any file is written, so a failing
        # run into the directory of a good one leaves every file as it was.
        run_camera_curve({"fine": NoiseModel(a_mm=0.2)}, tmp_path,
                         conditions=2, camera=_SMALL_CAMERA)
        names = ("camera_curve_raw.csv", "camera_curve_summary.csv",
                 "camera_curve.svg")
        before = [(tmp_path / n).read_bytes() for n in names]
        with pytest.raises(CurveFitError, match="preset 'lost'"):
            run_camera_curve({"lost": NoiseModel(dropout_rate=0.9999)},
                             tmp_path, conditions=2, camera=_SMALL_CAMERA)
        assert [(tmp_path / n).read_bytes() for n in names] == before
        fresh = tmp_path / "fresh"
        with pytest.raises(CurveFitError, match="preset 'lost'"):
            run_camera_curve({"fine": NoiseModel(a_mm=0.2),
                              "lost": NoiseModel(dropout_rate=0.9999)},
                             fresh, conditions=2, camera=_SMALL_CAMERA)
        assert list(fresh.iterdir()) == []

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidInputError):
            run_camera_curve({"p": NoiseModel()}, tmp_path,
                             distances_mm=(400.0, 600.0))
        with pytest.raises(InvalidInputError):
            run_camera_curve({"p": NoiseModel()}, tmp_path, conditions=0)


class TestRunRateBench:

    def test_smoke(self, tmp_path):
        out = run_rate_bench(default_scene(seed=0), tmp_path, repeats=2)
        assert set(out) == {"repeats", "mean_extract_ms", "mean_full_ms",
                            "p95_full_ms"}
        assert out["repeats"] == 2
        assert out["mean_extract_ms"] > 0.0 and out["mean_full_ms"] > 0.0
        assert out["p95_full_ms"] >= out["mean_full_ms"] * 0.5
        for name in ("rate_raw.csv", "rate_summary.csv", "rate.svg"):
            assert os.path.exists(tmp_path / name)

    def test_raw_row_count(self, tmp_path):
        run_rate_bench(default_scene(seed=0), tmp_path, repeats=3)
        columns, raw = read_csv(tmp_path / "rate_raw.csv")
        assert columns == ["repeat", "extract_ms", "full_ms"]
        assert [r[0] for r in raw] == ["0", "1", "2"]
        columns, summary = read_csv(tmp_path / "rate_summary.csv")
        assert columns == ["repeats", "mean_extract_ms", "mean_full_ms",
                           "p95_full_ms"]
        assert len(summary) == 1 and summary[0][0] == "3"

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidInputError):
            run_rate_bench(default_scene(seed=0), tmp_path, repeats=0)
        with pytest.raises(InvalidInputError, match="no masks"):
            run_rate_bench(_hidden_teat_scene(), tmp_path, repeats=1)


@pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
@pytest.mark.parametrize("name, run", [
    ("frames", lambda n, out: static_scene_stream(default_scene(), n)),
    ("cycles", lambda n, out: run_repeatability(default_scene(), n, out)),
    ("repeats", lambda n, out: run_rate_bench(default_scene(), out,
                                              repeats=n)),
    ("conditions", lambda n, out: run_camera_curve(
        {"none": NoiseModel()}, out, conditions=n)),
])
def test_non_integer_count_rejected(name, run, count, tmp_path):
    with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
        run(count, tmp_path)
