"""Message-driven estimation pipeline with latency injection and gating.

Three stages mirror the deployed node layout: synchronized intake (camera
frames), a segmentation stage whose latency models a remote NN service, and
the geometry stage feeding per-track consistency gates. Time is simulated in
integer microseconds so runs are fast and replays are bit-identical; wall
time never enters the event record.
"""

from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .camera import CameraModel
from .cloud import PointCloud
from .errors import (InvalidInputError, TeatPoseError, _check_bound,
                     _check_count, _dataclass_from_dict, _is_int)
from .mask import extract_masked_points, project_cells
from .pose import PoseConfig, TeatPose, estimate_teat_pose
from .scene import SceneSpec, render
from .voxel import voxel_downsample

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatencyModel:
    """Stage latencies in ms: NN inference, network round trip, geometry budget."""

    inference_ms: float = 150.0
    network_ms: float = 50.0
    geometry_budget_ms: float = 50.0

    def __post_init__(self):
        _check_bound(self, ("inference_ms", "network_ms",
                            "geometry_budget_ms"),
                     lambda v: 0 <= v < math.inf, "finite and >= 0")

    @property
    def round_trip_us(self) -> int:
        """Segmentation service time: inference plus network, microseconds."""
        return int(round((self.inference_ms + self.network_ms) * 1000.0))

    @property
    def geometry_us(self) -> int:
        return int(round(self.geometry_budget_ms * 1000.0))


@dataclass(frozen=True)
class FrameMessage:
    """Synchronized camera frame: the cloud and its teat masks.

    The cloud and every mask carry the same stamp; that is the
    synchronization contract and it is asserted, not assumed.
    """

    stamp_us: int
    cloud: PointCloud
    camera: CameraModel
    masks: tuple

    def __post_init__(self):
        for m in self.masks:
            if m.stamp_us != self.stamp_us:
                raise InvalidInputError(
                    f"mask stamp {m.stamp_us} != frame stamp {self.stamp_us}")


@dataclass(frozen=True)
class ConsistencyGate:
    """Actuation gate: the last `window` poses must agree pairwise."""

    window: int = 5
    pos_tol_mm: float = 3.0
    axis_tol_deg: float = 5.0

    def __post_init__(self):
        _check_bound(self, ("window",), lambda v: _is_int(v) and v >= 2,
                     "an integer >= 2")
        # A Python int, so that to_dict can be written as JSON.
        object.__setattr__(self, "window", int(self.window))
        _check_bound(self, ("pos_tol_mm", "axis_tol_deg"), lambda v: v > 0,
                     "> 0")


def poses_agree(a: TeatPose, b: TeatPose, gate: ConsistencyGate) -> bool:
    """Tip within pos_tol and directed axis angle within axis_tol."""
    if np.linalg.norm(a.tip_mm - b.tip_mm) > gate.pos_tol_mm:
        return False
    cosang = float(np.clip(a.axis @ b.axis, -1.0, 1.0))
    return np.degrees(np.arccos(cosang)) <= gate.axis_tol_deg


def gate_update(window: list, pose: TeatPose, gate: ConsistencyGate) -> str:
    """Feed one pose into a track's gate.

    `window` is the track's list of recent poses, updated in place. The
    candidate window is its last window-1 poses plus the new one. Any
    pairwise violation clears the window down to the new pose ("reset");
    otherwise the pose joins the window and the decision is "consistent"
    once the window is full, "pending" before that. Because the window is
    always pairwise-consistent, checking the new pose against it is
    equivalent to the full O(M^2) check.
    """
    retained = window[-(gate.window - 1):]
    if all(poses_agree(p, pose, gate) for p in retained):
        window[:] = retained + [pose]
        return "consistent" if len(window) == gate.window else "pending"
    window[:] = [pose]
    return "reset"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything run_pipeline needs besides the scenes themselves."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    gate: ConsistencyGate = field(default_factory=ConsistencyGate)
    pose: PoseConfig = field(default_factory=PoseConfig)
    camera_period_us: int = 33333
    association_mm: float = 15.0

    def __post_init__(self):
        _check_bound(self, ("camera_period_us",),
                     lambda v: _is_int(v) and v > 0, "a positive integer")
        _check_bound(self, ("association_mm",), lambda v: v > 0, "> 0")
        # A Python int, so that event times and to_dict can be written as
        # JSON.
        object.__setattr__(self, "camera_period_us",
                           int(self.camera_period_us))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return _dataclass_from_dict(cls, d, "pipeline config")


def estimate_frame(cloud: PointCloud, masks, camera, config: PoseConfig,
                   ) -> tuple[list[TeatPose], list[tuple[str, str]]]:
    """Geometry path for one synchronized frame.

    The cloud is projected once per frame into pixel cells over the union
    bounding box of the masks (`project_cells`). Per mask: keep the points
    whose cells are the mask's pixels, voxel-downsample, estimate the
    pose. A failed teat is recorded and skipped; the frame never aborts.

    Returns:
        (poses, failures) where failures are (teat_id, error class name).
    """
    poses = []
    failures = []
    cells = project_cells(cloud, camera, masks)
    for mask in masks:
        try:
            pts = extract_masked_points(cloud, mask, camera, cells=cells)
            pts = voxel_downsample(pts, config.voxel_leaf_mm)
            poses.append(estimate_teat_pose(
                pts, camera, config=config, teat_id=mask.teat_id,
                stamp_us=mask.stamp_us))
        except TeatPoseError as exc:
            failures.append((mask.teat_id, type(exc).__name__))
    return poses, failures


@dataclass
class PipelineResult:
    """Event log (sim-time dicts), emitted poses per track, and run summary."""

    events: list
    poses: list
    summary: dict


class _TrackBook:
    """Nearest-tip association: stable track ids across frames."""

    def __init__(self, radius_mm: float):
        self.radius_mm = radius_mm
        self.tips: dict[str, np.ndarray] = {}

    def assign(self, tips: list[np.ndarray]) -> list[str]:
        """Track id per tip of one frame, one-to-one: tip-track pairs within
        the radius of the tracks as they stood before the frame are taken in
        ascending distance; unmatched tips open new tracks in order."""
        pairs = sorted((float(np.linalg.norm(t - tip)), i, tid)
                       for i, tip in enumerate(tips)
                       for tid, t in self.tips.items())
        ids: dict[int, str] = {}
        for d, i, tid in pairs:
            if d <= self.radius_mm and i not in ids and tid not in ids.values():
                ids[i] = tid
        for i, tip in enumerate(tips):
            ids.setdefault(i, f"T{len(self.tips) + 1}")
            self.tips[ids[i]] = np.asarray(tip, dtype=float)
        return [ids[i] for i in range(len(tips))]


class _FreshestSlot:
    """Server with one waiting slot, where a newer offer evicts the waiting item.

    serve(item, start_us) runs an item and returns when the server is free
    again; drop(item, t_us) records an evicted item.
    """

    def __init__(self, serve, drop):
        self.serve, self.drop = serve, drop
        self.free_us = 0
        self.waiting = None

    def offer(self, item, t_us: int) -> None:
        """Start item at t_us if the server is free by then, else park it."""
        if self.free_us <= t_us:
            self.flush()
        if self.free_us <= t_us:
            self.free_us = self.serve(item, t_us)
            return
        if self.waiting is not None:
            self.drop(self.waiting, t_us)
        self.waiting = item

    def flush(self) -> None:
        """Start the waiting item, if any, as soon as the server is free."""
        if self.waiting is not None:
            item, self.waiting = self.waiting, None
            self.free_us = self.serve(item, self.free_us)


def _summarize(events: list[dict]) -> dict:
    """Run summary re-derived from the time-sorted event log.

    Every camera frame is either accepted by segmentation or superseded in
    its waiting slot, so those two events count the emitted frames.
    """
    by_kind: dict[str, list[dict]] = defaultdict(list)
    for e in events:
        by_kind[e["event"]].append(e)
    accepts = [e["t_us"] for e in by_kind["frame_accepted"]]
    drops = by_kind["frame_dropped"]
    first_gate: dict[str, int] = {}
    for e in by_kind["gate"]:
        if e["decision"] == "consistent":
            first_gate.setdefault(e["track_id"], e["t_us"])
    return {
        "frames_emitted": len(accepts) + sum(e["reason"] == "superseded"
                                             for e in drops),
        "frames_accepted": len(accepts),
        "frames_dropped": len(drops),
        "poses": len(by_kind["pose"]),
        "pose_failures": len(by_kind["pose_failed"]),
        "sim_fps": ((len(accepts) - 1) * 1e6 / (accepts[-1] - accepts[0])
                    if len(accepts) >= 2 else None),
        "first_gate_us": min(first_gate.values(), default=None),
        "all_gated_us": max(first_gate.values(), default=None),
        "tracks": sorted({e["track_id"] for e in by_kind["pose"]}),
        "sim_end_us": max((e["t_us"] for e in by_kind["frame_done"]),
                          default=0),
    }


def run_pipeline(scenes, config: PipelineConfig | None = None,
                 ) -> PipelineResult:
    """Drive the three-stage pipeline over a scene stream.

    Each scene is one camera frame, emitted every camera_period_us of
    simulated time. Segmentation (the NN round trip) and geometry (its
    budget) are two servers with one waiting slot each; a fresher frame
    evicts the waiting one (freshest data wins). Only accepted frames are
    rendered, which keeps a high camera rate cheap.

    Returns:
        PipelineResult; its summary, derived from the sorted event log,
        includes simulated throughput (sim_fps) and the simulated time at
        which every observed track first gated.
    """
    config = config or PipelineConfig()
    events: list[dict] = []
    emitted: list[TeatPose] = []
    tracks = _TrackBook(config.association_mm)
    windows: dict[str, list] = {}

    def drop(reason: str, item, t_us: int) -> None:
        frame_idx, stamp_us, _ = item
        logger.debug("frame %d dropped (%s) at t=%dus", frame_idx, reason, t_us)
        events.append({"event": "frame_dropped", "t_us": t_us, "frame": frame_idx,
                       "stamp_us": stamp_us, "reason": reason})

    def geometry(item, start_us: int) -> int:
        frame_idx, stamp_us, msg = item
        done = start_us + config.latency.geometry_us
        poses, failures = estimate_frame(msg.cloud, msg.masks,
                                         msg.camera, config.pose)
        for teat_id, err in failures:
            events.append({"event": "pose_failed", "t_us": done,
                           "frame": frame_idx, "mask_id": teat_id,
                           "error": err})
        track_ids = tracks.assign([pose.tip_mm for pose in poses])
        for pose, track_id in zip(poses, track_ids):
            tracked = replace(pose, teat_id=track_id)
            emitted.append(tracked)
            events.append({
                "event": "pose", "t_us": done, "frame": frame_idx,
                "mask_id": pose.teat_id, "track_id": track_id,
                "tip_mm": [round(float(x), 3) for x in tracked.tip_mm],
                "axis": [round(float(x), 6) for x in tracked.axis],
                "n_points": tracked.n_points})
            decision = gate_update(windows.setdefault(track_id, []),
                                   tracked, config.gate)
            events.append({"event": "gate", "t_us": done, "frame": frame_idx,
                           "track_id": track_id, "decision": decision})
        events.append({"event": "frame_done", "t_us": done,
                       "frame": frame_idx, "latency_us": done - stamp_us})
        return done

    geo_server = _FreshestSlot(geometry, partial(drop, "pose_backlog"))

    def segmentation(item, start_us: int) -> int:
        frame_idx, stamp_us, scene = item
        events.append({"event": "frame_accepted", "t_us": start_us,
                       "frame": frame_idx, "stamp_us": stamp_us})
        cloud, masks, _ = render(scene, stamp_us=stamp_us)
        ready = start_us + config.latency.round_trip_us
        events.append({"event": "masks_ready", "t_us": ready,
                       "frame": frame_idx, "n_masks": len(masks)})
        msg = FrameMessage(stamp_us=stamp_us, cloud=cloud, camera=scene.camera,
                           masks=tuple(masks))
        geo_server.offer((frame_idx, stamp_us, msg), ready)
        return ready

    seg_server = _FreshestSlot(segmentation, partial(drop, "superseded"))
    for k, scene in enumerate(scenes):
        t_k = k * config.camera_period_us
        seg_server.offer((k, t_k, scene), t_k)
    seg_server.flush()
    geo_server.flush()

    events.sort(key=lambda e: e["t_us"])
    return PipelineResult(events=events, poses=emitted,
                          summary=_summarize(events))


def static_scene_stream(scene: SceneSpec, frames: int):
    """Per-frame copies of one scene with decorrelated noise seeds.

    `frames` is checked on the call; the copies are made as they are drawn.
    """
    _check_count("frames", frames)
    seeds = (int(np.random.SeedSequence((scene.seed, k)).generate_state(1)[0])
             for k in range(frames))
    return (replace(scene, seed=seed) for seed in seeds)


def write_events_jsonl(events, path) -> None:
    with open(path, "w") as f:
        for e in events:
            f.write(json.dumps(e) + "\n")
