"""Teat axis estimators: point-distribution PCA and surface-normal analysis.

Both estimators return a unit axis of arbitrary sign, and surface normals
are unsigned; `teatpose.pose.disambiguate_direction` alone resolves a sign.
Normals and their k-NN rows travel as plain arrays; `normals_axis` checks
the normals it reads.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import (AmbiguousAxisError, InsufficientPointsError,
                     InvalidInputError, _is_int)

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


# A normal is taken from the closed form only where the largest diagonal
# entry of adj(A - lambda0 I), A the trace-normalized covariance, exceeds
# this. That entry is (lambda1 - lambda0)(lambda2 - lambda0) max_i v0_i^2,
# and the normal's error grows as the inverse square of it: ~2e-11 rad at
# 1e-3 against LAPACK's `eigh`. Smaller entries (lambda0 ~ lambda1, or no
# spread at all) go to `eigh`.
_ADJ_MIN = 1e-3
_I = np.arange(3)


def _cofactor_index(di: int, dj: int) -> np.ndarray:
    """Flat indices of M[i + di, j + dj] (mod 3) in a row-major 3x3 M."""
    return (((_I[:, None] + di) % 3) * 3 + (_I + dj) % 3).ravel()


_C11, _C22, _C12, _C21 = (_cofactor_index(1, 1), _cofactor_index(2, 2),
                          _cofactor_index(1, 2), _cofactor_index(2, 1))


def _hood_normals(points: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """(m, 3) unit smallest-eigenvalue eigenvectors of k-NN covariances.

    Each covariance C is divided by its trace, so A = C / tr(C) has
    eigenvalues in [0, 1] summing to 1, and no power of an entry can
    overflow. The smallest eigenvalue lambda0 of A is the trigonometric
    root of its characteristic cubic (Smith, CACM 4(4), 1961). The normal
    is the largest-diagonal column of adj(A - lambda0 I), which is
    proportional to its eigenvector (Kopp, arXiv:physics/0610206). Rows
    whose column is too short to trust (`_ADJ_MIN`) take `np.linalg.eigh`
    instead. Every step is row-local, so a row gives the same bits alone
    as in any batch.
    """
    hoods = points[nbr]                                # (m, k, 3)
    # A zero trace, or no spread around it (A = I/3), gives NaN below,
    # which fails `ok`; an overflowing covariance is rejected after.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centered = hoods - hoods.mean(axis=1, keepdims=True)
        cov = centered.transpose(0, 2, 1) @ centered
        trace = np.trace(cov, axis1=1, axis2=2)[:, None, None]
        d = cov / trace - np.eye(3) / 3.0              # A - tr(A)/3 I
        p = np.sqrt((d * d).sum(axis=(1, 2)) / 6.0)
        r = np.clip(np.linalg.det(d) / (2.0 * p * p * p), -1.0, 1.0)
        # lambda0 - 1/3, the smallest root of det(d - x I) = 0.
        shift = 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)
        m = (d - shift[:, None, None] * np.eye(3)).reshape(-1, 9)
        # Cofactors M[i+1, j+1] M[i+2, j+2] - M[i+1, j+2] M[i+2, j+1]: for a
        # symmetric M they are adj(M) itself.
        adj = m[:, _C11] * m[:, _C22] - m[:, _C12] * m[:, _C21]
        adj = adj.reshape(-1, 3, 3)
        rows = np.arange(len(adj))
        j = adj[:, _I, _I].argmax(axis=1)
        ok = adj[rows, j, j] > _ADJ_MIN
        col = adj[rows, j]
        normals = col / np.sqrt((col * col).sum(axis=1))[:, None]
    if not np.all(np.isfinite(trace)):
        raise InvalidInputError(
            "estimate_normals: a neighbourhood covariance overflows")
    if not ok.all():
        normals[~ok] = np.linalg.eigh(cov[~ok])[1][:, :, 0]
    return normals


def estimate_normals(cloud: PointCloud,
                     k: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """k-NN covariance unit surface normals.

    Each point's normal is the smallest-eigenvalue eigenvector of the
    covariance of its k nearest neighbours (the point itself included). Its
    sign is arbitrary; `disambiguate_direction` resolves the sign of the
    axis estimated from the normals.

    Args:
        cloud: Cloud with len(cloud) >= k and a finite squared bbox
            diagonal.
        k: Neighbourhood size, an integer >= 3.

    Returns:
        (normals, neighbours): (n, 3) unit normals, one per input point in
        input order, and the (n, k) rows of each point's k nearest
        neighbours, nearest first, as `cKDTree.query` orders them.
    """
    if not (_is_int(k) and k >= 3):
        raise InvalidInputError(f"k must be an integer >= 3, got {k!r}")
    if len(cloud) < k:
        raise InvalidInputError(
            f"k ({k}) exceeds point count ({len(cloud)})")
    cloud.require_finite_extent("estimate_normals")

    p = cloud.points
    nbr = cKDTree(p).query(p, k=k)[1]
    return _hood_normals(p, nbr), nbr


def normals_axis(normals: np.ndarray) -> np.ndarray:
    """Axis most orthogonal to a set of unit normals.

    Minimizes sum_i (n_i . a)^2, i.e. the smallest-eigenvalue eigenvector of
    sum n_i n_i^T. For a cylindrical surface the normals fan around the axis,
    so the minimizer is the axis itself. Only n_i n_i^T is read, so no
    normal's sign matters. The axis's sign is arbitrary;
    `disambiguate_direction` resolves it.

    Args:
        normals: (n, 3) unit normals, sign arbitrary.

    Raises:
        InvalidInputError: A normal's length differs from 1 by more than
            1e-9, or is NaN.
        InsufficientPointsError: Fewer than 2 normals.
        AmbiguousAxisError: Normals are all (anti)parallel, so a whole plane
            of directions minimizes the objective.
    """
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(n, axis=1)
    if len(n) and not np.abs(norms - 1.0).max() <= 1e-9:  # NaN fails
        raise InvalidInputError("normals must be unit length")
    if len(n) < 2:
        raise InsufficientPointsError(
            f"normals_axis needs >= 2 normals, got {len(n)}")
    evals, evecs = np.linalg.eigh(n.T @ n)
    # Parallel normals leave two near-zero eigenvalues: no unique minimizer.
    if evals[1] - evals[0] <= 1e-9 * max(evals[2], 1.0):
        raise AmbiguousAxisError("normals are parallel; axis undefined")
    return evecs[:, 0]
