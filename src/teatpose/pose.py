"""Per-teat pose estimation: oriented axis plus tip location.

The axis always points from the tip toward the udder, so the cup approach
direction is -axis. Tips are reported in the world frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .axes import AXIS_RATIO_MIN, estimate_normals, normals_axis, pca_axis
from .camera import CameraModel
from .cloud import FRAME_CAMERA, PointCloud
from .cluster import euclidean_cluster
from .errors import (InsufficientPointsError, InvalidInputError,
                     TeatPoseError)

METHODS = ("pca", "normals")

# Near-horizontal axes make the world-up sign rule unreliable below this dot.
_UP_DOT_MIN = 0.1


@dataclass(frozen=True)
class TeatPose:
    """Estimated tip position and approach axis for one teat.

    Attributes:
        teat_id: Identifier carried over from the mask.
        tip_mm: Tip position, world frame.
        axis: Unit vector from tip toward the udder (cup approaches along -axis).
        method: Axis estimator used, "pca" or "normals".
        n_points: Supporting point count after clustering.
        stamp_us: Source frame timestamp.
    """

    teat_id: str
    tip_mm: np.ndarray
    axis: np.ndarray
    method: str
    n_points: int
    stamp_us: int = 0

    def __post_init__(self):
        tip = np.asarray(self.tip_mm, dtype=float).reshape(3)
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        norm = np.linalg.norm(ax)
        if abs(norm - 1.0) > 1e-9:
            raise InvalidInputError(f"axis must be unit length, |axis| = {norm}")
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        object.__setattr__(self, "tip_mm", tip)
        object.__setattr__(self, "axis", ax)
        tip.flags.writeable = False
        ax.flags.writeable = False

    def canonical_frame(self) -> np.ndarray:
        """Right-handed orthonormal frame with the axis as third column.

        The completion is arbitrary but deterministic (roll about the axis
        carries no information for a rotationally symmetric cup).
        """
        ref = np.zeros(3)
        ref[int(np.argmin(np.abs(self.axis)))] = 1.0
        u = np.cross(ref, self.axis)
        u /= np.linalg.norm(u)
        v = np.cross(self.axis, u)
        return np.column_stack([u, v, self.axis])

    def to_dict(self) -> dict:
        return {
            "teat_id": self.teat_id,
            "stamp_us": int(self.stamp_us),
            "tip_mm": [float(x) for x in self.tip_mm],
            "axis": [float(x) for x in self.axis],
            "method": self.method,
            "n_points": int(self.n_points),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TeatPose":
        return cls(teat_id=d["teat_id"], tip_mm=np.array(d["tip_mm"]),
                   axis=np.array(d["axis"]), method=d["method"],
                   n_points=int(d["n_points"]), stamp_us=int(d["stamp_us"]))


def save_poses_jsonl(poses, path) -> None:
    with open(path, "w") as f:
        for pose in poses:
            f.write(json.dumps(pose.to_dict()) + "\n")


def load_poses_jsonl(path) -> list[TeatPose]:
    poses = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                poses.append(TeatPose.from_dict(json.loads(line)))
    return poses


@dataclass(frozen=True)
class PoseConfig:
    """Tunables of the per-teat geometry path.

    normals_k trades noise robustness against small-cluster fidelity: the
    normal patch must span clearly more than the noise-thickened shell, so
    heavy isotropic noise (~2 mm and up) wants k around 32, while typical
    depth-noise clusters of a few hundred points do best at the default 12
    (large k over-smooths them).
    """

    voxel_leaf_mm: float = 5.0
    cluster_tolerance_mm: float = 10.0
    min_points: int = 30
    normals_k: int = 12
    axis_ratio_min: float = AXIS_RATIO_MIN
    tip_percentile: float = 2.0
    tip_slab_mm: float = 5.0
    tip_trim_mm: float = 15.0
    method: str = "normals"
    stride: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if not 0 <= self.tip_percentile <= 50:
            raise InvalidInputError("tip percentile must be in [0, 50]")
        if self.tip_slab_mm <= 0:
            raise InvalidInputError("tip slab must be positive")
        if self.tip_trim_mm < 0:
            raise InvalidInputError("tip trim must be >= 0")


def disambiguate_direction(axis: np.ndarray, points: PointCloud,
                           camera: CameraModel) -> np.ndarray:
    """Resolve the sign of an estimated axis so it points tip -> base.

    Primary rule: positive dot product with the world up direction (teats
    hang downward, the udder is up). When the axis is near-horizontal
    (|dot| < 0.1) that rule is unstable, so the sign is chosen to point away
    from whichever axial extreme of the cloud lies nearest the camera (the
    tip faces the sensor during approach).

    Args:
        axis: Non-zero axis estimate, sign arbitrary.
        points: The teat's points (camera or world frame).
        camera: Supplies world-up and the sensor position.

    Returns:
        Unit axis with the sign resolved.
    """
    a = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise InvalidInputError("axis must be non-zero")
    a = a / norm

    if points.frame == FRAME_CAMERA:
        up = camera.up_in_camera
        origin = np.zeros(3)
    else:
        up = np.array([0.0, 0.0, 1.0])
        origin = camera.position_world

    d = float(a @ up)
    if abs(d) >= _UP_DOT_MIN:
        return -a if d < 0 else a

    if len(points) == 0:
        return a
    s = points.points @ a
    p_lo = points.points[int(np.argmin(s))]
    p_hi = points.points[int(np.argmax(s))]
    # Tip end is closer to the sensor; axis must run away from it.
    if np.linalg.norm(p_lo - origin) <= np.linalg.norm(p_hi - origin):
        return a
    return -a


def locate_tip(points: PointCloud, axis: np.ndarray,
               percentile: float = 2.0, slab_mm: float = 5.0) -> np.ndarray:
    """Tip position from the axial extreme of the cluster.

    The axial coordinates are reduced to a robust minimum (the given low
    percentile), and the points within `slab_mm` of that position form the
    tip neighbourhood. That neighbourhood lies on the rounded tip cap, so a
    free-centre least-squares sphere fit recovers the cap, and the apex is
    the sphere point furthest along -axis. The fit is exact for a spherical
    cap and, because the centre is free, stays exact when the camera sees
    only part of the cap. If the fit is degenerate (too few points, flat or
    wall-like neighbourhood, apex away from the observed extreme) the
    percentile position on the axis line through the centroid is used.

    Args:
        points: Non-empty cloud of one teat.
        axis: Disambiguated unit axis (tip has the lowest axial coordinate).
        percentile: Robust-minimum percentile of the axial positions.
        slab_mm: Half-width of the axial slab around the robust minimum.

    Returns:
        (3,) tip position in the cloud's frame.
    """
    if len(points) == 0:
        raise InsufficientPointsError("locate_tip needs at least one point")
    a = np.asarray(axis, dtype=float).reshape(3)
    c = points.points.mean(axis=0)
    s = (points.points - c) @ a
    s_floor = float(np.percentile(s, percentile))
    slab = np.abs(s - s_floor) <= slab_mm
    q = points.points[slab]

    if len(q) >= 4:
        # Sphere |p - ctr|^2 = R^2 is linear in (ctr, R^2 - |ctr|^2).
        design = np.column_stack([2.0 * q, np.ones(len(q))])
        target = np.einsum("ni,ni->n", q, q)
        sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank == 4:
            ctr, gamma = sol[:3], sol[3]
            r2 = float(gamma + ctr @ ctr)
            if 0.0 < r2 < 1e8:
                apex = ctr - np.sqrt(r2) * a
                s_apex = float((apex - c) @ a)
                # Accept only a cap apex near the observed extreme.
                if s[slab].min() - slab_mm <= s_apex <= s_floor:
                    return apex

    return c + s_floor * a


def _cluster_axis(cluster: PointCloud, method: str, cfg: PoseConfig,
                  ) -> np.ndarray:
    if method == "pca":
        return pca_axis(cluster, ratio_min=cfg.axis_ratio_min)
    k = min(cfg.normals_k, len(cluster))
    field_ = estimate_normals(cluster, k=k, camera_origin=(0.0, 0.0, 0.0))
    return normals_axis(field_)


# Refinement floors: minimum wall points and maximum believable correction.
_REFINE_MIN_POINTS = 12
_REFINE_MAX_TURN_COS = np.cos(np.radians(45.0))


def _refine_axis(cluster: PointCloud, axis: np.ndarray, cfg: PoseConfig,
                 camera: CameraModel) -> np.ndarray:
    """Re-estimate the normals axis after excluding the tip cap.

    A depth camera sees one side of the teat, and the visible part of the
    rounded cap pulls the axis estimators off axis. The wall's normal bundle
    alone is bias-free (wall normals are orthogonal to the axis no matter
    which side is visible), so the cap band (tip_trim_mm from the tip-side
    extreme) is dropped and the normals axis re-estimated, iterating once
    with the improved axis. This is a normals-only step: the trimmed wall's
    point covariance is nearly isotropic in cross-section versus length for
    typical teat proportions, so a PCA re-fit would be ill-conditioned
    there. Orthogonal flips and estimator failures keep the current axis.
    """
    if cfg.tip_trim_mm <= 0:
        return axis
    p = cluster.points
    c = p.mean(axis=0)
    for _ in range(2):
        s = (p - c) @ axis
        wall = s >= s.min() + cfg.tip_trim_mm
        if int(wall.sum()) < _REFINE_MIN_POINTS:
            return axis
        try:
            cand = _cluster_axis(cluster.select(np.nonzero(wall)[0]),
                                 "normals", cfg)
        except TeatPoseError:
            return axis
        cand = disambiguate_direction(cand, cluster, camera)
        if float(cand @ axis) < _REFINE_MAX_TURN_COS:
            return axis
        done = float(cand @ axis) > 1.0 - 1e-9
        axis = cand
        if done:
            break
    return axis


def estimate_teat_pose(points: PointCloud, camera: CameraModel,
                       config: PoseConfig | None = None,
                       teat_id: str = "", stamp_us: int = 0) -> TeatPose:
    """Full single-teat pose from its extracted points.

    Pipeline: keep the largest Euclidean cluster (stray frustum hits fall
    away), estimate the axis with config.method, resolve its sign,
    for the normals method re-estimate on the cap-trimmed wall, locate the
    tip, and report everything in the world frame.

    Args:
        points: Camera-frame points of one teat (already voxel-downsampled
            by the caller in the standard pipeline).
        camera: Camera the points were observed with.
        config: Tunables, including the axis method; defaults from PoseConfig.
        teat_id: Identifier to stamp into the pose.
        stamp_us: Source frame timestamp.

    Returns:
        TeatPose with tip and axis in the world frame.

    Raises:
        InsufficientPointsError: Fewer than config.min_points points survive.
        AmbiguousAxisError: No usable elongation direction.
    """
    cfg = config or PoseConfig()
    points.require_frame(FRAME_CAMERA, "estimate_teat_pose")
    if len(points) < cfg.min_points:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: {len(points)} points < minimum {cfg.min_points}")

    clusters = euclidean_cluster(points, tolerance_mm=cfg.cluster_tolerance_mm,
                                 min_size=1)
    cluster = clusters[0]
    if len(cluster) < cfg.min_points:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: largest cluster has {len(cluster)} points "
            f"< minimum {cfg.min_points}")

    axis = _cluster_axis(cluster, cfg.method, cfg)
    axis = disambiguate_direction(axis, cluster, camera)
    if cfg.method == "normals":
        axis = _refine_axis(cluster, axis, cfg, camera)
    tip_cam = locate_tip(cluster, axis, percentile=cfg.tip_percentile,
                         slab_mm=cfg.tip_slab_mm)

    tip_world = camera.camera_to_world(tip_cam)
    axis_world = camera.rotate_to_world(axis)
    axis_world = axis_world / np.linalg.norm(axis_world)
    return TeatPose(teat_id=teat_id, tip_mm=tip_world, axis=axis_world,
                    method=cfg.method, n_points=len(cluster),
                    stamp_us=stamp_us)
