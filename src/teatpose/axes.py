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
    """Per-point unit normals oriented toward the sensor.

    Attributes:
        normals: (n, 3) unit normals.
        neighbours: (n, k) rows of each point's k nearest neighbours in the
            cloud the normals were estimated on, nearest first; None for a
            field built by hand. `estimate_normals(subset_of=...)` reads
            them.
        neighbours_unique: (n,) True where a point's k nearest neighbours
            are known to be unique: their distances and the (k+1)-th
            nearest distance strictly increase, so no distance tie lets a
            k-d tree pick or order them otherwise. None with `neighbours`.
    """

    normals: np.ndarray
    neighbours: np.ndarray | None = None
    neighbours_unique: np.ndarray | None = None

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        norms = np.linalg.norm(n, axis=1)
        if len(n) and not np.allclose(norms, 1.0, atol=1e-9):
            raise InvalidInputError("normals must be unit length")
        object.__setattr__(self, "normals", n)
        n.flags.writeable = False
        if (self.neighbours is None) != (self.neighbours_unique is None):
            raise InvalidInputError(
                "neighbours and neighbours_unique go together")
        if self.neighbours is not None:
            nbr = np.asarray(self.neighbours)
            unique = np.asarray(self.neighbours_unique)
            if (nbr.ndim != 2 or len(nbr) != len(n) or nbr.dtype.kind != "i"
                    or (nbr.size and (nbr.min() < 0 or nbr.max() >= len(n)))):
                raise InvalidInputError(
                    f"neighbours must be ({len(n)}, k) rows in [0, {len(n)})")
            if unique.shape != (len(n),) or unique.dtype != bool:
                raise InvalidInputError(
                    f"neighbours_unique must be {len(n)} booleans")
            for name, a in (("neighbours", nbr),
                            ("neighbours_unique", unique)):
                object.__setattr__(self, name, a)
                a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.normals)


def _hood_eigvecs(points: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """(m, 3, 3) eigenvectors (ascending eigenvalues) of k-NN covariances."""
    hoods = points[nbr]                                # (m, k, 3)
    centered = hoods - hoods.mean(axis=1, keepdims=True)
    covs = np.einsum("nki,nkj->nij", centered, centered) / nbr.shape[1]
    return np.linalg.eigh(covs)[1]


def _subset_neighbours(subset_of, n: int, k: int):
    """Check subset_of = (field, rows) and return the field at rows.

    Returns its normals, neighbours and neighbours_unique at rows, with the
    neighbours renumbered to the subset's own rows, -1 where a neighbour
    lies outside the subset.
    """
    field, rows = subset_of
    nbr = getattr(field, "neighbours", None)
    if nbr is None or nbr.shape[1] != k:
        raise InvalidInputError(
            f"subset_of needs a field that estimate_normals built with k={k}")
    rows = np.asarray(rows)
    if rows.shape == (n,) and rows.dtype.kind in "iu":
        rows = rows.astype(np.intp)  # np.diff of unsigned rows wraps
    if (rows.shape != (n,) or rows.dtype != np.intp or rows[0] < 0
            or rows[-1] >= len(field) or np.any(np.diff(rows) <= 0)):
        raise InvalidInputError(
            f"subset_of rows must be {n} increasing indices in "
            f"[0, {len(field)})")
    pos = np.full(len(field), -1)
    pos[rows] = np.arange(n)
    return field.normals[rows], pos[nbr[rows]], field.neighbours_unique[rows]


def estimate_normals(cloud: PointCloud, k: int = 12,
                     camera_origin=(0.0, 0.0, 0.0), *,
                     subset_of=None) -> SurfaceNormalField:
    """k-NN covariance surface normals, flipped to face the sensor.

    Each point's normal is the smallest-eigenvalue eigenvector of the
    covariance of its k nearest neighbours (the point itself included), then
    sign-flipped so dot(normal, camera_origin - point) >= 0.

    A cloud that is a subset of an earlier one can reuse its field: pass
    `subset_of=(field, rows)`, where `field` is what this function returned
    for the earlier cloud with the same k and camera_origin, and `cloud` is
    that cloud's `select(rows)`. Take a point whose k nearest neighbours in
    the earlier cloud are unique (`field.neighbours_unique`) and all lie in
    the subset. Every other subset point is further away than the k-th of
    them, so a search of the subset finds the same neighbours in the same
    order, and the covariance and normal come out the same: the earlier
    normal is copied. A k-d tree of the subset is searched only for the
    other points; its query of one point does not depend on which other
    points are queried. The result is bit-identical to a call without
    `subset_of`, also for clouds with distance ties.

    Args:
        cloud: Camera-frame cloud with len(cloud) >= k.
        k: Neighbourhood size, an integer >= 3.
        camera_origin: Sensor position in the cloud's frame, finite.
        subset_of: Optional (field, rows) as above; rows are strictly
            increasing indices into the earlier cloud.

    Returns:
        SurfaceNormalField, one normal per input point in input order, with
        its neighbours. The normals are column 0 of an (n, 3, 3) eigenvector
        buffer on either path; see `normals_axis` for why that layout is kept.
    """
    if not (k >= 3 and float(k).is_integer()):
        raise InvalidInputError(f"k must be an integer >= 3, got {k!r}")
    k = int(k)
    if len(cloud) < k:
        raise InvalidInputError(
            f"k ({k}) exceeds point count ({len(cloud)})")
    origin = np.asarray(camera_origin, dtype=float).reshape(3)
    if not np.all(np.isfinite(origin)):
        raise InvalidInputError(
            f"camera_origin must be finite, got {camera_origin!r}")

    p = cloud.points
    if subset_of is None:
        tree = cKDTree(p)
        # The (k+1)-th distance (inf past the cloud) shows a tie at the k-th.
        dist, nbr = tree.query(p, k=k + 1)
        unique = np.all(np.diff(dist, axis=1) > 0, axis=1)
        nbr = nbr[:, :k]
        # Under a tie a k query may keep other neighbours, or another order.
        tied = np.nonzero(~unique)[0]
        if len(tied):
            nbr[tied] = tree.query(p[tied], k=k)[1]
        evecs = _hood_eigvecs(p, nbr)
    else:
        copied, nbr, unique = _subset_neighbours(subset_of, len(cloud), k)
        evecs = np.empty((len(p), 3, 3))
        evecs[:, :, 0] = copied
        rest = np.nonzero(~unique | (nbr < 0).any(axis=1))[0]
        if len(rest):
            nbr[rest] = cKDTree(p).query(p[rest], k=k)[1]
            evecs[rest] = _hood_eigvecs(p, nbr[rest])
        # A copied row stays unique in the subset; the searched rows were
        # asked for k neighbours only, so their uniqueness is unknown.
        unique[rest] = False
    normals = evecs[:, :, 0]                           # smallest eigenvalue
    toward = origin - p
    flip = np.einsum("ni,ni->n", normals, toward) < 0
    normals[flip] *= -1
    return SurfaceNormalField(normals=normals, neighbours=nbr,
                              neighbours_unique=unique)


def normals_axis(field: SurfaceNormalField) -> np.ndarray:
    """Axis most orthogonal to a normal field.

    Minimizes sum_i (n_i . a)^2, i.e. the smallest-eigenvalue eigenvector of
    sum n_i n_i^T. For a cylindrical surface the normals fan around the axis,
    so the minimizer is the axis itself.

    The bits of that sum depend on the normals' memory layout once there are
    more than a few hundred rows: numpy computes `normals.T @ normals` in its
    own loop for the strided column view that `estimate_normals` returns,
    and in BLAS for a contiguous array. `estimate_normals` therefore returns
    that view on both of its paths, fresh and `subset_of`.

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
