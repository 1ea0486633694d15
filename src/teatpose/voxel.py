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
    Idempotent on clouds that are already one-point-per-voxel.

    Args:
        cloud: Input cloud.
        leaf_mm: Voxel edge length in mm, finite and positive. Every
            |p / leaf_mm| must stay below 2^63 so the voxel indices fit int64.

    Returns:
        Downsampled PointCloud.
    """
    if not (leaf_mm > 0 and np.isfinite(leaf_mm)):
        raise InvalidInputError(f"leaf size must be positive, got {leaf_mm}")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))

    pts = cloud.points
    cells = np.floor(pts / leaf_mm)
    if np.abs(cells).max() >= 2.0 ** 63:
        raise InvalidInputError(
            f"points lie 2^63 or more voxels of {leaf_mm} mm from the origin")
    idx = cells.astype(np.int64)
    # One stable lexicographic sort of the voxel indices groups each voxel's
    # points into a run and keeps them in input order. lexsort compares the
    # three columns, so no combined 1-D key can overflow. bincount then sums
    # each run in that order, so the centroids are reproducible bit-for-bit
    # and come out in (ix, iy, iz) order.
    order = np.lexsort(idx.T[::-1])
    key = idx[order]
    start = np.concatenate([[True], np.any(key[1:] != key[:-1], axis=1)])
    label = np.cumsum(start) - 1
    counts = np.bincount(label)
    sums = [np.bincount(label, weights=pts[order, k]) for k in range(3)]
    return PointCloud(np.column_stack(sums) / counts[:, None])
