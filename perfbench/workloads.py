"""Seeded inputs for the benchmark workloads.

Every input is derived from (workload, seed, item index) through numpy's
SeedSequence, so the same seed always gives the same clouds, masks and
scenes. The package only ever sees the rendered clouds and masks (frame
workloads) or the scene stream (stream workload).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.transform import Rotation

import teatpose.scene as tp_scene
from teatpose.camera import CameraModel
from teatpose.pipeline import static_scene_stream
from teatpose.pose import PoseConfig

# Viewpoint jitter per frame or session: random arm start positions, the
# same ranges the repeatability experiment draws from.
TILT_DEG = 2.0
SHIFT_MM = 15.0
# Camera frames per stream session (40 frames at 30 fps, 8 reach geometry).
SESSION_FRAMES = 40


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "frame" or "stream"
    n_teats: int
    standoff_scale: float  # camera distance relative to the default rig
    pose: PoseConfig
    pool: int              # distinct frames (or sessions) cycled in a run


WORKLOADS = {w.name: w for w in (
    Workload("frame-default", "frame", 4, 1.0, PoseConfig(), 24),
    Workload("frame-close", "frame", 6, 0.6, PoseConfig(voxel_leaf_mm=2.0), 16),
    Workload("stream-sessions", "stream", 4, 1.0, PoseConfig(), 12),
)}


def _rng(workload: Workload, seed: int, *index: int) -> np.random.Generator:
    key = zlib.crc32(workload.name.encode())
    return np.random.default_rng(np.random.SeedSequence((seed, key, *index)))


def viewpoint_design(rng, n: int) -> np.ndarray:
    """(n, 6) Latin hypercube in [0, 1): each column is stratified in n
    equal slices, one sample per slice, so a pool covers the jitter range
    evenly and pool averages vary less from seed to seed."""
    slots = np.stack([rng.permutation(n) for _ in range(6)], axis=1)
    return (slots + rng.random((n, 6))) / n


def jitter_camera(camera: CameraModel, u) -> CameraModel:
    """Rotate by up to TILT_DEG about an axis uniform on the sphere and
    shift up to SHIFT_MM per axis; u is one row of viewpoint_design."""
    z = 2.0 * u[0] - 1.0
    phi = 2.0 * np.pi * u[1]
    r = np.sqrt(1.0 - z * z)
    axis = np.array([r * np.cos(phi), r * np.sin(phi), z])
    angle = np.deg2rad(TILT_DEG * (2.0 * u[2] - 1.0))
    rot = Rotation.from_rotvec(axis * angle).as_matrix() @ camera.rotation
    shift = SHIFT_MM * (2.0 * np.asarray(u[3:6]) - 1.0)
    return replace(camera, rotation=rot,
                   translation_mm=camera.translation_mm + shift)


def rig(workload: Workload) -> tp_scene.SceneSpec:
    """The workload's scene before jitter: default rig, camera pulled in."""
    scene = tp_scene.default_scene(seed=0, noise=tp_scene.orbbec_like_noise(),
                                   n_teats=workload.n_teats)
    if workload.standoff_scale == 1.0:
        return scene
    target = np.stack([t.tip_mm for t in scene.teats]).mean(axis=0)
    pos = scene.camera.position_world
    camera = CameraModel.look_at(
        target + workload.standoff_scale * (pos - target), target)
    return replace(scene, camera=camera)


@dataclass
class Frame:
    """One pre-rendered frame and the ground truth it is scored against."""

    cloud: object
    masks: list
    camera: CameraModel
    gt_tips: np.ndarray
    gt_axes: np.ndarray


@dataclass
class Session:
    """One cow: 40 camera frames of a jittered scene, plus its ground truth."""

    scenes: list
    gt_tips: np.ndarray
    gt_axes: np.ndarray


def build_inputs(workload: Workload, seed: int, pool: int | None = None):
    """The workload's input pool: Frames or Sessions."""
    base = rig(workload)
    n = pool or workload.pool
    design = viewpoint_design(_rng(workload, seed), n)
    items = []
    for i in range(n):
        rng = _rng(workload, seed, i)
        scene = replace(base, camera=jitter_camera(base.camera, design[i]),
                        seed=int(rng.integers(2 ** 63)))
        tips = np.stack([t.tip_mm for t in scene.teats])
        axes = np.stack([-t.axis for t in scene.teats])
        if workload.kind == "stream":
            items.append(Session(list(static_scene_stream(scene,
                                                          SESSION_FRAMES)),
                                 tips, axes))
        else:
            cloud, masks, _ = tp_scene.render(scene)
            items.append(Frame(cloud, masks, scene.camera, tips, axes))
    return items


def input_digest(items) -> str:
    """sha256 over everything the package receives."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, Session):
            for scene in item.scenes:
                h.update(json.dumps(scene.to_dict(), sort_keys=True).encode())
            continue
        h.update(np.ascontiguousarray(item.cloud.points).tobytes())
        h.update(item.camera.rotation.tobytes())
        h.update(item.camera.translation_mm.tobytes())
        for m in item.masks:
            h.update(f"{m.teat_id}/{m.stamp_us}".encode())
            h.update(m.contour.tobytes())
    return h.hexdigest()
