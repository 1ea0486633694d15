"""Voxel-grid downsampling (centroid per occupied voxel)."""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .errors import InvalidInputError


def voxel_downsample(cloud: PointCloud, leaf_mm: float = 5.0) -> PointCloud:
    """Replace every occupied voxel by the centroid of its points.

    The grid has its origin at (0, 0, 0): a point belongs to voxel
    floor(p / leaf_mm) per axis, so a point exactly on a cell boundary lands
    in the higher-index voxel. Output is ordered by voxel index (ix, iy, iz
    lexicographic), so the result is deterministic regardless of input order.
    Idempotent on clouds that are already one-point-per-voxel. Colors are
    dropped (centroids have no single source pixel).

    Args:
        cloud: Input cloud, any frame.
        leaf_mm: Voxel edge length in mm, finite and positive.

    Returns:
        Downsampled PointCloud in the same frame.
    """
    if not (leaf_mm > 0 and np.isfinite(leaf_mm)):
        raise InvalidInputError(f"leaf size must be positive, got {leaf_mm}")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)), frame=cloud.frame)

    idx = np.floor(cloud.points / leaf_mm).astype(np.int64)
    # Group points by voxel; np.unique sorts keys lexicographically, and
    # np.add.at accumulates in input order so sums are reproducible bit-for-bit.
    keys, inverse, counts = np.unique(idx, axis=0, return_inverse=True,
                                      return_counts=True)
    sums = np.zeros((len(keys), 3))
    np.add.at(sums, inverse.ravel(), cloud.points)
    centroids = sums / counts[:, None]
    return PointCloud(centroids, frame=cloud.frame)
