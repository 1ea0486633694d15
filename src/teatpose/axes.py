"""Teat axis estimators: point-distribution PCA and surface-normal analysis.

Both estimators return a unit axis with an arbitrary (but deterministic) sign;
orientation is resolved separately by `teatpose.pose.disambiguate_direction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import AmbiguousAxisError, InsufficientPointsError, InvalidInputError

# Minimum spread ratio between the two largest covariance eigenvalues before
# the elongation direction is considered meaningful.
AXIS_RATIO_MIN = 1.05


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude component is positive (deterministic)."""
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def pca_axis(cloud: PointCloud) -> np.ndarray:
    """Principal elongation axis of a cloud (largest covariance eigenvector).

    Args:
        cloud: At least 3 points with non-degenerate spread.

    Returns:
        Unit (3,) axis, sign canonicalized.

    Raises:
        InsufficientPointsError: Fewer than 3 points.
        AmbiguousAxisError: Covariance too isotropic (lambda1/lambda2 below
            AXIS_RATIO_MIN) or totally degenerate to single out an
            elongation direction.
    """
    if len(cloud) < 3:
        raise InsufficientPointsError(f"pca_axis needs >= 3 points, got {len(cloud)}")
    centered = cloud.points - cloud.points.mean(axis=0)
    cov = centered.T @ centered / len(cloud)
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    lam1, lam2 = evals[2], evals[1]
    if lam1 <= 0:
        raise AmbiguousAxisError("all points coincide; axis undefined")
    if lam2 > 0 and lam1 / lam2 < AXIS_RATIO_MIN:
        raise AmbiguousAxisError(f"isotropic covariance (ratio "
                                 f"{lam1 / lam2:.3f} < {AXIS_RATIO_MIN})")
    return _canonical_sign(evecs[:, 2])


@dataclass(frozen=True)
class SurfaceNormalField:
    """Per-point unit normals oriented toward the sensor."""

    normals: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        norms = np.linalg.norm(n, axis=1)
        if len(n) and not np.allclose(norms, 1.0, atol=1e-9):
            raise InvalidInputError("normals must be unit length")
        object.__setattr__(self, "normals", n)
        n.flags.writeable = False

    def __len__(self) -> int:
        return len(self.normals)


def estimate_normals(cloud: PointCloud, k: int = 12,
                     camera_origin=(0.0, 0.0, 0.0)) -> SurfaceNormalField:
    """k-NN covariance surface normals, flipped to face the sensor.

    Each point's normal is the smallest-eigenvalue eigenvector of the
    covariance of its k nearest neighbours (the point itself included), then
    sign-flipped so dot(normal, camera_origin - point) >= 0.

    Args:
        cloud: Camera-frame cloud with len(cloud) >= k.
        k: Neighbourhood size, >= 3.
        camera_origin: Sensor position in the cloud's frame.

    Returns:
        SurfaceNormalField, one normal per input point in input order.
    """
    if k < 3:
        raise InvalidInputError(f"k must be >= 3, got {k}")
    if len(cloud) < k:
        raise InvalidInputError(
            f"k ({k}) exceeds point count ({len(cloud)})")
    origin = np.asarray(camera_origin, dtype=float).reshape(3)

    tree = cKDTree(cloud.points)
    _, nbr = tree.query(cloud.points, k=k)
    hoods = cloud.points[nbr]                          # (n, k, 3)
    centered = hoods - hoods.mean(axis=1, keepdims=True)
    covs = np.einsum("nki,nkj->nij", centered, centered) / k
    _, evecs = np.linalg.eigh(covs)
    normals = evecs[:, :, 0]                           # smallest eigenvalue
    toward = origin - cloud.points
    flip = np.einsum("ni,ni->n", normals, toward) < 0
    normals[flip] *= -1
    return SurfaceNormalField(normals=normals)


def normals_axis(field: SurfaceNormalField) -> np.ndarray:
    """Axis most orthogonal to a normal field.

    Minimizes sum_i (n_i . a)^2, i.e. the smallest-eigenvalue eigenvector of
    sum n_i n_i^T. For a cylindrical surface the normals fan around the axis,
    so the minimizer is the axis itself.

    Raises:
        InsufficientPointsError: Fewer than 2 normals.
        AmbiguousAxisError: Normals are all (anti)parallel, so a whole plane
            of directions minimizes the objective.
    """
    if len(field) < 2:
        raise InsufficientPointsError(
            f"normals_axis needs >= 2 normals, got {len(field)}")
    m = field.normals.T @ field.normals
    evals, evecs = np.linalg.eigh(m)
    # Parallel normals leave two near-zero eigenvalues: no unique minimizer.
    if evals[1] - evals[0] <= 1e-9 * max(evals[2], 1.0):
        raise AmbiguousAxisError("normals are parallel; axis undefined")
    return _canonical_sign(evecs[:, 0])
