"""Per-teat pose estimation: oriented axis plus tip location.

The axis always points from the tip toward the udder, so the cup approach
direction is -axis. Tips are reported in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axes import estimate_normals, normals_axis
# Not called here: perfbench's span hooks wrap teatpose.pose.pca_axis by name.
from .axes import pca_axis  # noqa: F401
from .camera import CameraModel
from .cloud import FRAME_CAMERA, PointCloud
from .cluster import euclidean_cluster
from .errors import (InsufficientPointsError, InvalidInputError,
                     TeatPoseError, _check_bound, _is_int)

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
        n_points: Supporting point count after clustering, an integer >= 0.
        stamp_us: Source frame timestamp in microseconds, an integer >= 0.
    """

    teat_id: str
    tip_mm: np.ndarray
    axis: np.ndarray
    n_points: int
    stamp_us: int = 0

    def __post_init__(self):
        tip = np.asarray(self.tip_mm, dtype=float).reshape(3)
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        object.__setattr__(self, "tip_mm", tip)
        object.__setattr__(self, "axis", ax)
        _check_bound(self, ("tip_mm", "axis"),
                     lambda v: bool(np.all(np.isfinite(v))), "finite")
        _check_bound(self, ("n_points", "stamp_us"),
                     lambda v: _is_int(v) and v >= 0, "an integer >= 0")
        _check_unit(ax)
        tip.flags.writeable = False
        ax.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "teat_id": self.teat_id,
            "stamp_us": int(self.stamp_us),
            "tip_mm": [float(x) for x in self.tip_mm],
            "axis": [float(x) for x in self.axis],
            "n_points": int(self.n_points),
        }


@dataclass(frozen=True)
class PoseConfig:
    """The settings of the per-teat geometry path that some caller varies.

    Attributes:
        voxel_leaf_mm: Downsampling leaf; perfbench `frame-close` uses 2 mm.
        tip_slab_mm: Tip slab half-width of locate_tip; perfbench's test of
            a changed answer varies it.

    Every other setting of the path is a constant of this module or of
    `teatpose.axes`.
    """

    voxel_leaf_mm: float = 5.0
    tip_slab_mm: float = 5.0

    def __post_init__(self):
        _check_bound(self, ("voxel_leaf_mm", "tip_slab_mm"),
                     lambda v: 0 < v < np.inf, "finite and > 0")


def _finite_axis(axis) -> np.ndarray:
    """axis as a (3,) float array; InvalidInputError unless all finite."""
    a = np.asarray(axis, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"axis must be finite, got {a.tolist()}")
    return a


def _check_unit(axis: np.ndarray) -> None:
    """Raise InvalidInputError unless |axis| is 1 within 1e-9."""
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidInputError(f"axis must be unit length, |axis| = {norm}")


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
    a = _finite_axis(axis)
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
        axis: Disambiguated unit axis (tip has the lowest axial coordinate);
            InvalidInputError if |axis| differs from 1 by more than 1e-9.
        slab_mm: Half-width of the axial slab around the robust minimum.

    Returns:
        (3,) tip position in the cloud's frame.
    """
    if not 0 < slab_mm < np.inf:
        raise InvalidInputError(
            f"slab_mm must be finite and > 0, got {slab_mm!r}")
    if len(points) == 0:
        raise InsufficientPointsError("locate_tip needs at least one point")
    a = _finite_axis(axis)
    _check_unit(a)
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


def _refine_axis(cluster: PointCloud, normals: np.ndarray,
                 axis: np.ndarray, camera: CameraModel) -> np.ndarray:
    """Re-estimate the normals axis after excluding the tip cap.

    A depth camera sees one side of the teat, and the visible part of the
    rounded cap pulls the estimated axis off. The wall's normal bundle
    alone is bias-free (wall normals are orthogonal to the axis no matter
    which side is visible), so the cap band (_TIP_TRIM_MM from the tip-side
    extreme) is dropped and the normals axis re-estimated, iterating once
    with the improved axis. The trimmed wall's point covariance would not
    do: it is nearly isotropic in cross-section versus length for typical
    teat proportions, so a PCA re-fit would be ill-conditioned there.
    Orthogonal flips and estimator failures keep the current axis.

    `normals` are the cluster's (n, 3) unit normals. Each pass reads the
    wall's rows of them, so no neighbour search runs on the wall; a wall
    point next to the trim keeps the cap points among its k neighbours.
    """
    p = cluster.points
    c = p.mean(axis=0)
    for _ in range(2):
        s = (p - c) @ axis
        rows = np.nonzero(s >= s.min() + _TIP_TRIM_MM)[0]
        # Too few wall normals to trust; normals_axis alone would take 2.
        if len(rows) < _REFINE_MIN_POINTS:
            return axis
        try:
            cand = normals_axis(normals[rows])
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

    Pipeline: estimate surface normals, keep the largest Euclidean cluster
    (stray frustum hits fall away), take the normals axis and resolve its
    sign, re-estimate it on the cap-trimmed wall, locate the tip, and report
    everything in the world frame.

    Neighbours are searched once, before clustering: `estimate_normals`
    returns the whole cloud's normals and k-NN rows, and the rows go to
    `euclidean_cluster`. When their edges within the tolerance connect the
    cloud, the one cluster is the whole cloud in input order, and the
    normals already computed are the cluster's normals, bit for bit.
    Otherwise the radius clustering runs and the largest cluster's normals
    are estimated afresh.

    Args:
        points: Camera-frame points of one teat (already voxel-downsampled
            by the caller in the standard pipeline).
        camera: Camera the points were observed with.
        config: Tunables; defaults from PoseConfig.
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

    normals, neighbours = estimate_normals(points, k=_NORMALS_K)
    clusters = euclidean_cluster(points, tolerance_mm=_CLUSTER_TOLERANCE_MM,
                                 neighbours=neighbours)
    cluster = clusters[0]
    if len(cluster) < _MIN_POINTS:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: largest cluster has {len(cluster)} points "
            f"< minimum {_MIN_POINTS}")

    if len(clusters) > 1:
        normals = estimate_normals(cluster, k=_NORMALS_K)[0]
    axis = disambiguate_direction(normals_axis(normals), cluster, camera)
    axis = _refine_axis(cluster, normals, axis, camera)
    tip_cam = locate_tip(cluster, axis, slab_mm=cfg.tip_slab_mm)

    tip_world = camera.camera_to_world(tip_cam)
    axis_world = camera.rotate_to_world(axis)
    axis_world = axis_world / np.linalg.norm(axis_world)
    return TeatPose(teat_id=teat_id, tip_mm=tip_world, axis=axis_world,
                    n_points=len(cluster), stamp_us=stamp_us)
