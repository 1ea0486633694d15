"""Per-teat pose estimation: oriented axis plus tip location.

The axis always points from the tip toward the udder, so the cup approach
direction is -axis. Tips are reported in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axes import (SurfaceNormalField, estimate_normals, normals_axis,
                   pca_axis)
from .camera import CameraModel
from .cloud import FRAME_CAMERA, PointCloud
from .cluster import euclidean_cluster
from .errors import (InsufficientPointsError, InvalidInputError,
                     TeatPoseError, _check_bound)

METHODS = ("pca", "normals")

# Near-horizontal axes make the world-up sign rule unreliable below this dot.
_UP_DOT_MIN = 0.1

# Fewest points, before and after clustering, that a teat pose is built on.
_MIN_POINTS = 30
# Euclidean clustering radius that splits stray frustum hits from the teat.
_CLUSTER_TOLERANCE_MM = 10.0
# Neighbourhood size of the surface normals. It trades noise robustness
# against small-cluster fidelity: the normal patch must span clearly more
# than the noise-thickened shell, so heavy isotropic noise (~2 mm and up)
# wants k around 32, while typical depth-noise clusters of a few hundred
# points do best at 12 (large k over-smooths them).
_NORMALS_K = 12
# Robust-minimum percentile of the axial positions in locate_tip.
_TIP_PERCENTILE = 2.0
# Length of the cap band that _refine_axis drops from the tip-side extreme.
_TIP_TRIM_MM = 15.0


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
        object.__setattr__(self, "tip_mm", tip)
        object.__setattr__(self, "axis", ax)
        _check_bound(self, ("tip_mm", "axis"),
                     lambda v: bool(np.all(np.isfinite(v))), "finite")
        _check_bound(self, ("n_points",), lambda v: v >= 0, ">= 0")
        norm = np.linalg.norm(ax)
        if abs(norm - 1.0) > 1e-9:
            raise InvalidInputError(f"axis must be unit length, |axis| = {norm}")
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        tip.flags.writeable = False
        ax.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "teat_id": self.teat_id,
            "stamp_us": int(self.stamp_us),
            "tip_mm": [float(x) for x in self.tip_mm],
            "axis": [float(x) for x in self.axis],
            "method": self.method,
            "n_points": int(self.n_points),
        }


@dataclass(frozen=True)
class PoseConfig:
    """The settings of the per-teat geometry path that some caller varies.

    Attributes:
        voxel_leaf_mm: Downsampling leaf; perfbench `frame-close` uses 2 mm.
        tip_slab_mm: Tip slab half-width of locate_tip; perfbench's test of
            a changed answer varies it.
        method: Axis estimator; `teatpose repeatability --method` sets it.
        stride: Contour vertex stride; the `rate` experiment sweeps it.

    Every other setting of the path is a constant of this module or of
    `teatpose.axes`.
    """

    voxel_leaf_mm: float = 5.0
    tip_slab_mm: float = 5.0
    method: str = "normals"
    stride: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        _check_bound(self, ("voxel_leaf_mm", "tip_slab_mm"), lambda v: v > 0,
                     "> 0")
        _check_bound(self, ("stride",),
                     lambda v: v >= 1 and float(v).is_integer(),
                     "an integer >= 1")


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
               slab_mm: float = 5.0) -> np.ndarray:
    """Tip position from the axial extreme of the cluster.

    The axial coordinates are reduced to a robust minimum (their
    _TIP_PERCENTILE percentile), and the points within `slab_mm` of that
    position form the tip neighbourhood. That neighbourhood lies on the
    rounded tip cap, so a free-centre least-squares sphere fit recovers the
    cap, and the apex is the sphere point furthest along -axis. The fit is
    exact for a spherical cap and, because the centre is free, stays exact
    when the camera sees only part of the cap. If the fit is degenerate (too
    few points, flat or wall-like neighbourhood, apex away from the observed
    extreme) the percentile position on the axis line through the centroid
    is used.

    Args:
        points: Non-empty cloud of one teat.
        axis: Disambiguated unit axis (tip has the lowest axial coordinate).
        slab_mm: Half-width of the axial slab around the robust minimum.

    Returns:
        (3,) tip position in the cloud's frame.
    """
    if not slab_mm > 0:
        raise InvalidInputError(f"slab_mm must be > 0, got {slab_mm!r}")
    if len(points) == 0:
        raise InsufficientPointsError("locate_tip needs at least one point")
    a = np.asarray(axis, dtype=float).reshape(3)
    c = points.points.mean(axis=0)
    s = (points.points - c) @ a
    s_floor = float(np.percentile(s, _TIP_PERCENTILE))
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


# Refinement floors: minimum wall points and maximum believable correction.
_REFINE_MIN_POINTS = 12
_REFINE_MAX_TURN_COS = np.cos(np.radians(45.0))


def _refine_axis(cluster: PointCloud, field: SurfaceNormalField,
                 axis: np.ndarray, camera: CameraModel) -> np.ndarray:
    """Re-estimate the normals axis after excluding the tip cap.

    A depth camera sees one side of the teat, and the visible part of the
    rounded cap pulls the axis estimators off axis. The wall's normal bundle
    alone is bias-free (wall normals are orthogonal to the axis no matter
    which side is visible), so the cap band (_TIP_TRIM_MM from the tip-side
    extreme) is dropped and the normals axis re-estimated, iterating once
    with the improved axis. This is a normals-only step: the trimmed wall's
    point covariance is nearly isotropic in cross-section versus length for
    typical teat proportions, so a PCA re-fit would be ill-conditioned
    there. Orthogonal flips and estimator failures keep the current axis.

    `field` is the cluster's normal field. Each pass's wall normals copy it
    wherever a wall point's k neighbours all lie in the wall, and search
    the wall only for the rest (see `estimate_normals`).
    """
    p = cluster.points
    c = p.mean(axis=0)
    for _ in range(2):
        s = (p - c) @ axis
        rows = np.nonzero(s >= s.min() + _TIP_TRIM_MM)[0]
        # _REFINE_MIN_POINTS >= _NORMALS_K, so estimate_normals accepts it.
        if len(rows) < _REFINE_MIN_POINTS:
            return axis
        try:
            cand = normals_axis(estimate_normals(
                cluster.select(rows), k=_NORMALS_K, subset_of=(field, rows)))
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
        InsufficientPointsError: Fewer than _MIN_POINTS points survive.
        AmbiguousAxisError: No usable elongation direction.
    """
    cfg = config or PoseConfig()
    points.require_frame(FRAME_CAMERA, "estimate_teat_pose")
    if len(points) < _MIN_POINTS:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: {len(points)} points < minimum {_MIN_POINTS}")

    clusters = euclidean_cluster(points, tolerance_mm=_CLUSTER_TOLERANCE_MM)
    cluster = clusters[0]
    if len(cluster) < _MIN_POINTS:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: largest cluster has {len(cluster)} points "
            f"< minimum {_MIN_POINTS}")

    if cfg.method == "pca":
        axis = disambiguate_direction(pca_axis(cluster), cluster, camera)
    else:
        field = estimate_normals(cluster, k=_NORMALS_K)
        axis = disambiguate_direction(normals_axis(field), cluster, camera)
        axis = _refine_axis(cluster, field, axis, camera)
    tip_cam = locate_tip(cluster, axis, slab_mm=cfg.tip_slab_mm)

    tip_world = camera.camera_to_world(tip_cam)
    axis_world = camera.rotate_to_world(axis)
    axis_world = axis_world / np.linalg.norm(axis_world)
    return TeatPose(teat_id=teat_id, tip_mm=tip_world, axis=axis_world,
                    method=cfg.method, n_points=len(cluster),
                    stamp_us=stamp_us)
