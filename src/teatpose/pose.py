"""Per-teat pose estimation: oriented axis plus tip location.

The axis always points from the tip toward the udder, so the cup approach
direction is -axis. Tips are reported in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axes import pca_axis
from .camera import CameraModel
from .cloud import FRAME_CAMERA, PointCloud
from .cluster import euclidean_cluster
from .errors import (InsufficientPointsError, InvalidInputError,
                     _check_bound, _is_int)

# Near-horizontal axes make the world-up sign rule unreliable below this dot.
_UP_DOT_MIN = 0.1

# Fewest points, before and after clustering, that a teat pose is built on.
_MIN_POINTS = 30
# Euclidean clustering radius that splits stray frustum hits from the teat.
_CLUSTER_TOLERANCE_MM = 10.0
# Robust-minimum percentile of the axial positions in locate_tip.
_TIP_PERCENTILE = 2.0
# Capsule fit: soft-L1 residual scale, Gauss-Newton iteration cap, the step
# (mm and rad) below which it has converged, and damping relative to tr(H).
_FIT_SCALE_MM = 2.0
_FIT_MAX_ITER = 30
_FIT_STEP_TOL = 1e-4
_FIT_DAMPING = 1e-6

# Read only by perfbench/spans.py HOOKS; the benchmark refresh drops both.
estimate_normals = normals_axis = None


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
        tip_slab_mm: Half-width of the slab of the tip seed (locate_tip);
            perfbench's test of a changed answer varies it.

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
    """Tip seed from the axial extreme of the cluster.

    The axial coordinates are reduced to a robust minimum (their
    _TIP_PERCENTILE percentile). The centroid of the points within
    `slab_mm` of it (or of the nearest point), which lies near the axis on
    the rounded cap, is moved along the axis to that minimum.

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
    slab[np.argmin(np.abs(s - s_floor))] = True
    q = points.points[slab].mean(axis=0)
    return q + (s_floor - float((q - c) @ a)) * a


def _tangent_basis(a: np.ndarray) -> np.ndarray:
    """(3, 2) orthonormal columns orthogonal to the unit vector a, in the
    closed form of Duff et al., JCGT 6(1), 2017 (no cross product)."""
    x, y, z = a.tolist()
    sign = 1.0 if z >= 0.0 else -1.0
    k = -1.0 / (sign + z)
    b = x * y * k
    return np.array([[1.0 + sign * x * x * k, b],
                     [sign * b, sign + y * y * k], [-sign * x, -y]])


def _fit_capsule(p: np.ndarray, tip: np.ndarray,
                 axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Robust least-squares capsule through p, seeded at (tip, axis).

    The teat's shape: a cylinder of radius r about the unit axis a through
    the cap centre C, closed at the tip by the hemisphere about C and open
    toward the udder. With s = (p - C).a, a point is |p - C| - r off the
    cap if s <= 0 and |p - C - s a| - r off the wall otherwise (geometric
    distances: Lukacs, Martin & Marshall, 1998). Gauss-Newton steps C, r
    and two turns of a, under IRLS soft-L1 weights 1/sqrt(1 + (d /
    _FIT_SCALE_MM)^2), from r = the median distance to the seed axis line.
    Returns (C - r a, a) if the fit converges within _FIT_MAX_ITER steps
    to r > 0 and a finite tip within 2 r of the seed, else the seed.
    """
    d = p - tip
    d -= np.multiply.outer(d @ axis, axis)
    r = float(np.median(np.sqrt(np.einsum("ni,ni->n", d, d))))
    centre, a = tip + r * axis, axis
    # Distance derivatives by C, the two turns and r, then the residual:
    # one product with the weighted rows gives H and its right-hand side.
    jac = np.empty((len(p), 7))
    jac[:, 5] = -1.0
    # A point on the axis line divides by zero; its NaN fails the fit.
    with np.errstate(all="ignore"):
        for _ in range(_FIT_MAX_ITER):
            tangents = _tangent_basis(a)
            d = p - centre
            s = np.maximum(d @ a, 0.0)
            d -= np.multiply.outer(s, a)
            dist = np.sqrt(np.einsum("ni,ni->n", d, d))
            np.subtract(dist, r, out=jac[:, 6])
            np.divide(d, -dist[:, None], out=jac[:, :3])
            np.multiply(jac[:, :3] @ tangents, s[:, None], out=jac[:, 3:5])
            weighted = jac / np.hypot(1.0, jac[:, 6] / _FIT_SCALE_MM)[:, None]
            normal = weighted.T @ jac
            h = normal[:6, :6]
            h.flat[::7] += _FIT_DAMPING * h.trace()
            try:
                step = np.linalg.solve(h, -normal[:6, 6])
            except np.linalg.LinAlgError:
                break
            centre = centre + step[:3]
            a = a + tangents @ step[3:5]
            a = a / np.linalg.norm(a)
            r += float(step[5])
            if np.abs(step).max() < _FIT_STEP_TOL:
                fit_tip = centre - r * a
                # NaN fails both tests, and a finite r bounds the tip.
                if (0.0 < r < np.inf
                        and np.linalg.norm(fit_tip - tip) <= 2.0 * r):
                    return fit_tip, a
                break
    return tip, axis


def estimate_teat_pose(points: PointCloud, camera: CameraModel,
                       config: PoseConfig | None = None,
                       teat_id: str = "", stamp_us: int = 0) -> TeatPose:
    """Full single-teat pose from its extracted points.

    Pipeline: keep the largest Euclidean cluster (stray frustum hits fall
    away; no radius search runs when `euclidean_cluster`'s lattice proves
    the cloud connected), seed the axis with its principal direction,
    sign-resolved by `disambiguate_direction`, and the tip with
    `locate_tip`, refine both with one capsule fit, which keeps the seed if
    it fails, and report everything in the world frame.

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
    points.require_finite_extent("estimate_teat_pose")

    cluster = euclidean_cluster(points, tolerance_mm=_CLUSTER_TOLERANCE_MM)[0]
    if len(cluster) < _MIN_POINTS:
        raise InsufficientPointsError(
            f"teat {teat_id!r}: largest cluster has {len(cluster)} points "
            f"< minimum {_MIN_POINTS}")

    axis = disambiguate_direction(pca_axis(cluster), cluster, camera)
    tip_cam = locate_tip(cluster, axis, slab_mm=cfg.tip_slab_mm)
    tip_cam, axis = _fit_capsule(cluster.points, tip_cam, axis)

    tip_world = camera.camera_to_world(tip_cam)
    axis_world = camera.rotate_to_world(axis)
    axis_world = axis_world / np.linalg.norm(axis_world)
    return TeatPose(teat_id=teat_id, tip_mm=tip_world, axis=axis_world,
                    n_points=len(cluster), stamp_us=stamp_us)
