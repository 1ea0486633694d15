"""Teat axis seed: the principal axis of a cloud's point distribution.

The axis comes back with an arbitrary sign;
`teatpose.pose.disambiguate_direction` alone resolves it.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .errors import AmbiguousAxisError, InsufficientPointsError

# Minimum spread ratio between the two largest covariance eigenvalues before
# the elongation direction is considered meaningful.
AXIS_RATIO_MIN = 1.05


def pca_axis(cloud: PointCloud) -> np.ndarray:
    """Principal elongation axis of a cloud (largest covariance eigenvector).

    Args:
        cloud: At least 3 points with non-degenerate spread.

    Returns:
        Unit (3,) axis; sign arbitrary, `disambiguate_direction` resolves it.

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
    return evecs[:, 2]

