"""Tests for the message-driven pipeline stage machinery.

Simulated time is integer microseconds, so scheduling outcomes (accept and
drop decisions, gate times, throughput) are exact numbers and the event log
must replay bit for bit. The consistency gate's incremental update is checked
against a full pairwise oracle over randomized pose streams.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from teatpose.errors import InvalidInputError
from teatpose.mask import TeatMask
from teatpose.pipeline import (ConsistencyGate, FrameMessage, GateState,
                               LatencyModel, MaskPromise, PipelineConfig,
                               approach_plan, estimate_frame, gate_update,
                               poses_agree, read_events_jsonl, run_pipeline,
                               static_scene_stream, write_events_jsonl)
from teatpose.pose import TeatPose
from teatpose.scene import TeatSpec, default_scene, orbbec_like_noise, render


def _pose(tip, axis=(0.0, 0.0, 1.0), teat_id="T1"):
    axis = np.asarray(axis, dtype=float)
    return TeatPose(teat_id=teat_id, tip_mm=np.asarray(tip, dtype=float),
                    axis=axis / np.linalg.norm(axis), method="pca",
                    n_points=100)


def _gate_oracle(stream, gate):
    """Reference decisions: full pairwise check over the candidate window."""
    retained = []
    out = []
    for pose in stream:
        cand = retained[-(gate.window - 1):] + [pose]
        ok = all(poses_agree(cand[i], cand[j], gate)
                 for i in range(len(cand)) for j in range(i + 1, len(cand)))
        if ok:
            retained = cand
            out.append("consistent" if len(cand) == gate.window else "pending")
        else:
            retained = [pose]
            out.append("reset")
    return out


class TestLatencyModel:

    def test_default_round_trip(self):
        lat = LatencyModel()
        assert lat.round_trip_us == 200_000
        assert lat.geometry_us == 50_000

    def test_negative_latency_rejected(self):
        with pytest.raises(InvalidInputError):
            LatencyModel(network_ms=-1.0)


class TestFrameMessage:

    def test_stamp_mismatch_rejected(self):
        contour = np.array([[0, 0], [10, 0], [10, 10], [0, 10]])
        mask = TeatMask(teat_id="T1", stamp_us=99, contour=contour)
        scene = default_scene()
        cloud, _, _ = render(scene)
        with pytest.raises(InvalidInputError):
            FrameMessage(stamp_us=0, cloud=cloud, camera=scene.camera,
                         masks_promise=MaskPromise(ready_at_us=10,
                                                   masks=(mask,)))


class TestConsistencyGate:

    def test_window_bounds(self):
        with pytest.raises(InvalidInputError):
            ConsistencyGate(window=1)
        with pytest.raises(InvalidInputError):
            ConsistencyGate(pos_tol_mm=0.0)

    def test_poses_agree_boundaries(self):
        gate = ConsistencyGate(pos_tol_mm=3.0, axis_tol_deg=5.0)
        a = _pose([0.0, 0.0, 0.0])
        assert poses_agree(a, _pose([3.0, 0.0, 0.0]), gate)
        assert not poses_agree(a, _pose([3.001, 0.0, 0.0]), gate)
        tilted = _pose([0.0, 0.0, 0.0],
                       axis=(np.sin(np.radians(4.9)), 0.0,
                             np.cos(np.radians(4.9))))
        assert poses_agree(a, tilted, gate)
        tilted6 = _pose([0.0, 0.0, 0.0],
                        axis=(np.sin(np.radians(6.0)), 0.0,
                              np.cos(np.radians(6.0))))
        assert not poses_agree(a, tilted6, gate)

    def test_antipodal_axes_disagree(self):
        gate = ConsistencyGate()
        assert not poses_agree(_pose([0.0, 0.0, 0.0]),
                               _pose([0.0, 0.0, 0.0], axis=(0.0, 0.0, -1.0)),
                               gate)


class TestGateUpdate:

    def test_window_fills_then_gates(self):
        gate = ConsistencyGate(window=5)
        state = GateState()
        decisions = [gate_update(state, _pose([0.0, 0.0, 0.0]), gate)
                     for _ in range(6)]
        assert decisions == ["pending"] * 4 + ["consistent", "consistent"]

    def test_jump_resets_window(self):
        gate = ConsistencyGate(window=3)
        state = GateState()
        gate_update(state, _pose([0.0, 0.0, 0.0]), gate)
        gate_update(state, _pose([0.5, 0.0, 0.0]), gate)
        assert gate_update(state, _pose([10.0, 0.0, 0.0]), gate) == "reset"
        assert len(state.poses) == 1
        # the window rebuilds from the post-jump pose
        assert gate_update(state, _pose([10.0, 0.0, 0.0]), gate) == "pending"
        assert gate_update(state, _pose([10.0, 0.0, 0.0]), gate) == "consistent"

    def test_axis_twist_resets(self):
        gate = ConsistencyGate(window=2, axis_tol_deg=5.0)
        state = GateState()
        gate_update(state, _pose([0.0, 0.0, 0.0]), gate)
        twisted = _pose([0.0, 0.0, 0.0],
                        axis=(np.sin(np.radians(10.0)), 0.0,
                              np.cos(np.radians(10.0))))
        assert gate_update(state, twisted, gate) == "reset"

    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_matches_pairwise_oracle(self, window):
        gate = ConsistencyGate(window=window, pos_tol_mm=3.0, axis_tol_deg=5.0)
        rng = np.random.default_rng(31)
        tip = np.zeros(3)
        stream = []
        for _ in range(400):
            # mostly small drift, occasional jumps to exercise resets
            step = 6.0 if rng.random() < 0.15 else 1.2
            tip = tip + rng.standard_normal(3) * step
            axis = np.array([0.0, 0.0, 1.0]) + rng.standard_normal(3) * 0.03
            stream.append(_pose(tip, axis=axis))
        state = GateState()
        got = [gate_update(state, p, gate) for p in stream]
        assert got == _gate_oracle(stream, gate)


class TestApproachPlan:

    def test_standoff_point_below_tip(self):
        pose = _pose([10.0, 20.0, 600.0], axis=(0.0, 0.0, 1.0))
        plan = approach_plan(pose, standoff_mm=50.0)
        np.testing.assert_allclose(plan[0], [10.0, 20.0, 550.0])
        np.testing.assert_allclose(plan[1], [10.0, 20.0, 600.0])

    def test_segment_parallel_to_axis(self):
        axis = np.array([0.3, -0.1, 0.9])
        axis /= np.linalg.norm(axis)
        pose = _pose([5.0, -3.0, 580.0], axis=axis)
        plan = approach_plan(pose, standoff_mm=35.0)
        seg = plan[1] - plan[0]
        np.testing.assert_allclose(seg / np.linalg.norm(seg), axis, atol=1e-12)
        assert np.linalg.norm(seg) == pytest.approx(35.0)

    def test_nonpositive_standoff_rejected(self):
        with pytest.raises(InvalidInputError):
            approach_plan(_pose([0.0, 0.0, 0.0]), standoff_mm=0.0)


class TestPipelineConfig:

    def test_json_round_trip(self, tmp_path):
        config = PipelineConfig(latency=LatencyModel(inference_ms=120.0),
                                gate=ConsistencyGate(window=3),
                                camera_period_us=50_000)
        path = tmp_path / "config.json"
        config.save_json(path)
        assert PipelineConfig.load_json(path).to_dict() == config.to_dict()

    def test_invalid_period_rejected(self):
        with pytest.raises(InvalidInputError):
            PipelineConfig(camera_period_us=0)
        with pytest.raises(InvalidInputError):
            PipelineConfig(association_mm=0.0)


class TestEstimateFrame:

    def test_noiseless_frame_all_teats(self):
        scene = default_scene(seed=0)
        cloud, masks, gt = render(scene)
        poses, failures = estimate_frame(cloud, masks, scene.camera,
                                         PipelineConfig().pose)
        assert failures == []
        assert sorted(p.teat_id for p in poses) == ["T1", "T2", "T3", "T4"]
        for pose in poses:
            idx = int(pose.teat_id[1:]) - 1
            assert np.linalg.norm(pose.tip_mm - gt.tips_mm[idx]) < 1.0

    def test_failed_teat_recorded_not_raised(self):
        scene = default_scene(seed=0)
        cloud, masks, _ = render(scene)
        # corner region holds no scene points
        corner = TeatMask(teat_id="TX", stamp_us=0,
                          contour=np.array([[0, 0], [40, 0], [40, 40],
                                            [0, 40]]))
        poses, failures = estimate_frame(cloud, (corner,) + tuple(masks),
                                         scene.camera, PipelineConfig().pose)
        assert failures == [("TX", "InsufficientPointsError")]
        assert len(poses) == len(masks)


class TestRunPipeline:

    def test_static_stream_schedule_and_gating(self):
        scene = default_scene(seed=0)
        result = run_pipeline(static_scene_stream(scene, 40))
        s = result.summary
        # segmentation serializes at 200 ms, so accepts land on a 200 ms grid
        assert s["sim_fps"] == 5.0
        assert s["frames_emitted"] == 40
        assert s["frames_emitted"] == s["frames_accepted"] + s["frames_dropped"]
        assert s["frames_dropped"] > 0
        assert s["tracks"] == ["T1", "T2", "T3", "T4"]
        assert s["pose_failures"] == 0
        assert s["poses"] == 4 * s["frames_accepted"]
        # noiseless static scene: window of 5 fills on the 5th accept, whose
        # geometry finishes at 800000 + 200000 + 50000 us
        assert s["first_gate_us"] == 1_050_000
        assert s["all_gated_us"] == 1_050_000
        for e in result.events:
            if e["event"] == "frame_done":
                assert 250_000 <= e["latency_us"] < 400_000

    def test_events_sorted_and_schema(self):
        scene = default_scene(seed=0)
        result = run_pipeline(static_scene_stream(scene, 20))
        times = [e["t_us"] for e in result.events]
        assert times == sorted(times)
        kinds = {e["event"] for e in result.events}
        assert {"frame_accepted", "frame_dropped", "masks_ready", "pose",
                "gate", "frame_done"} <= kinds
        for e in result.events:
            if e["event"] == "pose":
                assert len(e["tip_mm"]) == 3
                assert len(e["axis"]) == 3
                assert e["track_id"].startswith("T")

    def test_small_jump_resets_only_that_track(self):
        scene = default_scene(seed=0)
        teat = scene.teats[0]
        moved = TeatSpec(base_mm=teat.base_mm + np.array([10.0, 0.0, 0.0]),
                         axis=teat.axis)
        scene_b = replace(scene, teats=(moved,) + scene.teats[1:])
        result = run_pipeline([scene] * 40 + [scene_b] * 40)
        resets = [e for e in result.events
                  if e["event"] == "gate" and e["decision"] == "reset"]
        # 10 mm is inside the association radius but outside the gate
        # tolerance: same track, one reset
        assert [e["track_id"] for e in resets] == ["T1"]
        assert result.summary["tracks"] == ["T1", "T2", "T3", "T4"]
        # the track re-gates on post-jump poses
        t1_after = [e["decision"] for e in result.events
                    if e["event"] == "gate" and e["track_id"] == "T1"
                    and e["t_us"] > resets[0]["t_us"]]
        assert "consistent" in t1_after

    def test_large_jump_spawns_new_track(self):
        scene = default_scene(seed=0)
        teat = scene.teats[0]
        moved = TeatSpec(base_mm=teat.base_mm + np.array([30.0, 0.0, 0.0]),
                         axis=teat.axis)
        scene_b = replace(scene, teats=(moved,) + scene.teats[1:])
        result = run_pipeline([scene] * 40 + [scene_b] * 40)
        assert result.summary["tracks"] == ["T1", "T2", "T3", "T4", "T5"]

    def test_slow_geometry_drops_with_backlog_reason(self):
        scene = default_scene(seed=0)
        config = PipelineConfig(latency=LatencyModel(geometry_budget_ms=300.0))
        result = run_pipeline(static_scene_stream(scene, 40), config)
        reasons = {e["reason"] for e in result.events
                   if e["event"] == "frame_dropped"}
        assert "pose_backlog" in reasons
        assert "superseded" in reasons

    def test_replay_byte_identical(self, tmp_path):
        scene = default_scene(seed=9, noise=orbbec_like_noise())
        scenes = list(static_scene_stream(scene, 15))
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_events_jsonl(run_pipeline(scenes).events, path_a)
        write_events_jsonl(run_pipeline(scenes).events, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        # and the log round-trips through the reader
        events = read_events_jsonl(path_a)
        assert events == run_pipeline(scenes).events


# Schedules recorded with render and estimate_frame stubbed out (one fixed
# pose and one failed mask per frame, gate window 2), so they pin the
# scheduler's policy across revisions rather than any float result.
_PINNED_DEFAULT = [
    ("frame_accepted", 0, 0, None), ("frame_dropped", 66666, 1, "superseded"),
    ("frame_dropped", 99999, 2, "superseded"),
    ("frame_dropped", 133332, 3, "superseded"),
    ("frame_dropped", 166665, 4, "superseded"),
    ("frame_dropped", 199998, 5, "superseded"),
    ("masks_ready", 200000, 0, None), ("frame_accepted", 200000, 6, None),
    ("pose_failed", 250000, 0, None), ("pose", 250000, 0, None),
    ("gate", 250000, 0, "pending"), ("frame_done", 250000, 0, None),
    ("frame_dropped", 266664, 7, "superseded"),
    ("frame_dropped", 299997, 8, "superseded"),
    ("frame_dropped", 333330, 9, "superseded"),
    ("frame_dropped", 366663, 10, "superseded"),
    ("frame_dropped", 399996, 11, "superseded"),
    ("masks_ready", 400000, 6, None), ("frame_accepted", 400000, 12, None),
    ("pose_failed", 450000, 6, None), ("pose", 450000, 6, None),
    ("gate", 450000, 6, "consistent"), ("frame_done", 450000, 6, None),
    ("frame_dropped", 466662, 13, "superseded"),
    ("frame_dropped", 499995, 14, "superseded"),
    ("masks_ready", 600000, 12, None), ("frame_accepted", 600000, 15, None),
    ("pose_failed", 650000, 12, None), ("pose", 650000, 12, None),
    ("gate", 650000, 12, "consistent"), ("frame_done", 650000, 12, None),
    ("masks_ready", 800000, 15, None), ("pose_failed", 850000, 15, None),
    ("pose", 850000, 15, None), ("gate", 850000, 15, "consistent"),
    ("frame_done", 850000, 15, None),
]
_PINNED_SLOW_GEOMETRY = [
    ("frame_accepted", 0, 0, None), ("frame_dropped", 66666, 1, "superseded"),
    ("frame_dropped", 99999, 2, "superseded"),
    ("frame_dropped", 133332, 3, "superseded"),
    ("frame_dropped", 166665, 4, "superseded"),
    ("frame_dropped", 199998, 5, "superseded"),
    ("masks_ready", 200000, 0, None), ("frame_accepted", 200000, 6, None),
    ("frame_dropped", 266664, 7, "superseded"),
    ("frame_dropped", 299997, 8, "superseded"),
    ("frame_dropped", 333330, 9, "superseded"),
    ("frame_dropped", 366663, 10, "superseded"),
    ("frame_dropped", 399996, 11, "superseded"),
    ("masks_ready", 400000, 6, None), ("frame_accepted", 400000, 12, None),
    ("frame_dropped", 466662, 13, "superseded"),
    ("frame_dropped", 499995, 14, "superseded"),
    ("pose_failed", 500000, 0, None), ("pose", 500000, 0, None),
    ("gate", 500000, 0, "pending"), ("frame_done", 500000, 0, None),
    ("frame_dropped", 533328, 15, "superseded"),
    ("frame_dropped", 566661, 16, "superseded"),
    ("frame_dropped", 599994, 17, "superseded"),
    ("masks_ready", 600000, 12, None), ("frame_accepted", 600000, 18, None),
    ("frame_dropped", 666660, 19, "superseded"),
    ("frame_dropped", 699993, 20, "superseded"),
    ("frame_dropped", 733326, 21, "superseded"),
    ("frame_dropped", 766659, 22, "superseded"),
    ("frame_dropped", 799992, 23, "superseded"),
    ("pose_failed", 800000, 6, None), ("pose", 800000, 6, None),
    ("gate", 800000, 6, "consistent"), ("frame_done", 800000, 6, None),
    ("masks_ready", 800000, 18, None), ("frame_accepted", 800000, 24, None),
    ("masks_ready", 1000000, 24, None),
    ("frame_dropped", 1000000, 18, "pose_backlog"),
    ("pose_failed", 1100000, 12, None), ("pose", 1100000, 12, None),
    ("gate", 1100000, 12, "consistent"), ("frame_done", 1100000, 12, None),
    ("pose_failed", 1400000, 24, None), ("pose", 1400000, 24, None),
    ("gate", 1400000, 24, "consistent"), ("frame_done", 1400000, 24, None),
]
_PINNED_FLUSH = [
    ("frame_accepted", 0, 0, None), ("frame_dropped", 66666, 1, "superseded"),
    ("frame_dropped", 99999, 2, "superseded"),
    ("frame_dropped", 133332, 3, "superseded"),
    ("frame_dropped", 166665, 4, "superseded"),
    ("frame_dropped", 199998, 5, "superseded"),
    ("masks_ready", 200000, 0, None), ("frame_accepted", 200000, 6, None),
    ("masks_ready", 400000, 6, None), ("frame_accepted", 400000, 7, None),
    ("pose_failed", 500000, 0, None), ("pose", 500000, 0, None),
    ("gate", 500000, 0, "pending"), ("frame_done", 500000, 0, None),
    ("masks_ready", 600000, 7, None), ("pose_failed", 800000, 6, None),
    ("pose", 800000, 6, None), ("gate", 800000, 6, "consistent"),
    ("frame_done", 800000, 6, None), ("pose_failed", 1100000, 7, None),
    ("pose", 1100000, 7, None), ("gate", 1100000, 7, "consistent"),
    ("frame_done", 1100000, 7, None),
]

class TestPinnedSchedule:
    """Literal schedules: a scheduler rewrite must reproduce them exactly."""

    @pytest.fixture(autouse=True)
    def _stub_stages(self, monkeypatch):
        contour = np.array([[0, 0], [10, 0], [10, 10], [0, 10]])
        pose = _pose([0.0, 0.0, 600.0])

        def fake_render(scene, stamp_us=0):
            mask = TeatMask(teat_id="T1", stamp_us=stamp_us, contour=contour)
            return None, [mask], None

        def fake_estimate_frame(cloud, masks, camera, config):
            return [pose], [("TX", "InsufficientPointsError")]

        monkeypatch.setattr("teatpose.pipeline.render", fake_render)
        monkeypatch.setattr("teatpose.pipeline.estimate_frame",
                            fake_estimate_frame)

    @pytest.mark.parametrize("frames, geometry_ms, schedule, summary", [
        # default latency: only the segmentation slot ever evicts
        (16, 50.0, _PINNED_DEFAULT,
         {"frames_emitted": 16, "frames_accepted": 4, "frames_dropped": 12,
          "poses": 4, "pose_failures": 4, "sim_fps": 5.0,
          "first_gate_us": 450000, "all_gated_us": 450000, "tracks": ["T1"],
          "sim_end_us": 850000}),
        # geometry slower than segmentation: both slots evict
        (25, 300.0, _PINNED_SLOW_GEOMETRY,
         {"frames_emitted": 25, "frames_accepted": 5, "frames_dropped": 21,
          "poses": 4, "pose_failures": 4, "sim_fps": 5.0,
          "first_gate_us": 800000, "all_gated_us": 800000, "tracks": ["T1"],
          "sim_end_us": 1400000}),
        # the stream ends with a frame waiting in each slot
        (8, 300.0, _PINNED_FLUSH,
         {"frames_emitted": 8, "frames_accepted": 3, "frames_dropped": 5,
          "poses": 3, "pose_failures": 3, "sim_fps": 5.0,
          "first_gate_us": 800000, "all_gated_us": 800000, "tracks": ["T1"],
          "sim_end_us": 1100000}),
    ], ids=["default", "slow_geometry", "flush_both_slots"])
    def test_schedule_and_summary(self, frames, geometry_ms, schedule,
                                  summary):
        config = PipelineConfig(
            latency=LatencyModel(geometry_budget_ms=geometry_ms),
            gate=ConsistencyGate(window=2))
        result = run_pipeline([default_scene()] * frames, config)
        got = [(e["event"], e["t_us"], e["frame"],
                e.get("reason", e.get("decision"))) for e in result.events]
        assert got == schedule
        assert result.summary == summary


class TestStaticSceneStream:

    def test_needs_at_least_one_frame(self):
        with pytest.raises(InvalidInputError):
            list(static_scene_stream(default_scene(), 0))

    def test_per_frame_seeds_deterministic_and_distinct(self):
        scene = default_scene(seed=4)
        seeds_a = [s.seed for s in static_scene_stream(scene, 6)]
        seeds_b = [s.seed for s in static_scene_stream(scene, 6)]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 6
