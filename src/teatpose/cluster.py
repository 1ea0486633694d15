"""Euclidean clustering: connected components of the fixed-radius graph."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidInputError


def euclidean_cluster(cloud: PointCloud, tolerance_mm: float = 10.0,
                      ) -> list[PointCloud]:
    """Split a cloud into connected components under a distance tolerance.

    Two points are neighbours when their Euclidean distance is <= tolerance;
    clusters are the connected components of that graph (the semantics of
    PCL's Euclidean cluster extraction, without size limits).

    Args:
        cloud: Input cloud, any frame.
        tolerance_mm: Neighbour radius, > 0.

    Returns:
        Every cluster as a PointCloud, sorted by descending size; ties broken
        by lexicographic centroid comparison. Points inside a cluster keep
        their input order. An empty cloud gives [].
    """
    if not (tolerance_mm > 0 and np.isfinite(tolerance_mm)):
        raise InvalidInputError(f"tolerance must be positive, got {tolerance_mm}")
    n = len(cloud)
    if n == 0:
        return []

    pairs = cKDTree(cloud.points).query_pairs(tolerance_mm, output_type="ndarray")
    graph = coo_array((np.ones(len(pairs)), pairs.T), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    # A stable sort keeps input order inside each component.
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    groups.sort(key=lambda idx: (-len(idx),
                                 tuple(cloud.points[idx].mean(axis=0))))
    return [cloud.select(idx) for idx in groups]
