"""Euclidean clustering: connected components of the fixed-radius graph."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidInputError, _check_neighbours

# Relative margin below tolerance^2 that a given neighbour edge must keep.
# numpy and the k-d tree may round a squared distance differently by a few
# ulps; the margin is far wider, so no kept edge is missing from the radius
# graph.
_EDGE_MARGIN = 1e-9


def _edges_connect(points: np.ndarray, neighbours: np.ndarray,
                   tolerance_mm: float) -> bool:
    """True if the neighbour edges provably within tolerance connect points.

    Only kept edges are stored: a 0/1 weight per row entry would join far
    points, as csgraph counts a stored zero as an edge.
    """
    d = np.take(points, neighbours, axis=0) - points[:, None, :]
    keep = (np.einsum("nki,nki->nk", d, d)
            < tolerance_mm * tolerance_mm * (1.0 - _EDGE_MARGIN))
    n = len(points)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    graph = csr_array((np.ones(indptr[-1]), neighbours[keep], indptr),
                      shape=(n, n))
    return connected_components(graph, directed=False,
                                return_labels=False) == 1


def euclidean_cluster(cloud: PointCloud, tolerance_mm: float = 10.0, *,
                      neighbours=None) -> list[PointCloud]:
    """Split a cloud into connected components under a distance tolerance.

    Two points are neighbours when their Euclidean distance is <= tolerance;
    clusters are the connected components of that graph (the semantics of
    PCL's Euclidean cluster extraction, without size limits).

    `neighbours` lets a caller that already holds neighbour rows, such as
    the k-NN rows of `estimate_teat_pose`, skip the radius search when those
    rows connect the cloud. Of the edges (i, neighbours[i, j]) only those
    whose squared distance is below tolerance^2 by a relative margin are
    kept; the margin covers any rounding difference between numpy and the
    k-d tree, so every kept edge is an edge of the radius graph. If the
    kept edges connect the cloud, the radius graph, which contains them,
    is connected too: the one cluster is the whole cloud in input order,
    bit for bit what the radius path returns. Otherwise the radius path
    runs. The graph stores the kept edges only, because csgraph counts a
    stored zero weight as an edge.

    Args:
        cloud: Input cloud, any frame; its squared bbox diagonal must be
            finite.
        tolerance_mm: Neighbour radius, > 0.
        neighbours: Optional (n, k) integer array of row indices in [0, n).

    Returns:
        Every cluster as a PointCloud, sorted by descending size; ties broken
        by lexicographic centroid comparison. Points inside a cluster keep
        their input order. An empty cloud gives [].
    """
    if not (tolerance_mm > 0 and np.isfinite(tolerance_mm)):
        raise InvalidInputError(f"tolerance must be positive, got {tolerance_mm}")
    n = len(cloud)
    if neighbours is not None:
        neighbours = _check_neighbours(neighbours, n)
    if n == 0:
        return []
    cloud.require_finite_extent("euclidean_cluster")

    if neighbours is not None and _edges_connect(
            cloud.points, neighbours.astype(np.intp, copy=False),
            tolerance_mm):
        # The radius path's one cluster: a C-ordered copy in input order.
        return [cloud.select(np.arange(n))]

    pairs = cKDTree(cloud.points).query_pairs(tolerance_mm, output_type="ndarray")
    graph = coo_array((np.ones(len(pairs)), pairs.T), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    # A stable sort keeps input order inside each component.
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    groups.sort(key=lambda idx: (-len(idx),
                                 tuple(cloud.points[idx].mean(axis=0))))
    return [cloud.select(idx) for idx in groups]
