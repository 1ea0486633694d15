"""Euclidean clustering: connected components of the fixed-radius graph."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidInputError

# Relative margin below tolerance^2 that a lattice edge must keep. numpy and
# the k-d tree may round a squared distance differently by a few ulps; the
# margin is far wider, so no kept edge is missing from the radius graph.
_EDGE_MARGIN = 1e-9
# The cube itself and the 13 cubes after it in (x, y, z) order among its 26
# neighbours: every adjacent pair of cubes is one of these offsets apart.
_FORWARD = np.array([(i, j, k) for i in (0, 1) for j in (-1, 0, 1)
                     for k in (-1, 0, 1) if (i, j, k) >= (0, 0, 0)])


def _require_finite_extent(points: np.ndarray) -> None:
    """InvalidInputError unless the squared bbox diagonal is finite.

    Every squared point distance is at most that diagonal, so k-d tree
    searches cannot overflow on such points.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        extent = points.max(axis=0) - points.min(axis=0)
        diag2 = float(np.sum(extent * extent))
    if not np.isfinite(diag2):
        raise InvalidInputError(
            f"euclidean_cluster: cloud extent {extent.tolist()} mm overflows "
            "squared distances")


def _lattice_edges(
        points: np.ndarray,
        tolerance_mm: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate neighbour edges (heads, tails) read off a cubic lattice.

    Point i gets one edge to the first point, in input order, of each
    occupied cube among its own cube and the 13 after it (_FORWARD).
    Heads come out ascending. None if the padded grid has 2^62 cubes or
    more, so that no flat cube key can overflow int64.
    """
    # A cube's diagonal is one tolerance: two points in one cube are
    # neighbours.
    cell = tolerance_mm / np.sqrt(3.0)
    lo = points.min(axis=0)
    # One empty cube on each side keeps every offset cube inside the grid.
    # The cube count is a float, tested before any integer cast; a tiny
    # cell may overflow it to inf.
    with np.errstate(all="ignore"):
        dims = np.floor((points.max(axis=0) - lo) / cell) + 3.0
        if not np.prod(dims) < 2.0 ** 62:
            return None
    dims = dims.astype(np.int64)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    keys = (np.floor((points - lo) / cell).astype(np.int64) + 1) @ strides
    # A stable sort puts each cube's points in a run, in input order.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    cubes = sorted_keys[first]
    cube_of = np.empty(len(keys), dtype=np.intp)
    cube_of[order] = np.cumsum(first) - 1
    # Each occupied cube's 14 candidates: a first point, or -1 if empty.
    targets = cubes[:, None] + _FORWARD @ strides
    at = np.minimum(np.searchsorted(cubes, targets), len(cubes) - 1)
    candidates = np.where(cubes[at] == targets, order[first][at], -1)
    rows = candidates[cube_of].ravel()
    edge = np.flatnonzero(rows >= 0)
    return edge // len(_FORWARD), rows[edge]


def _edges_connect(points: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                   tolerance_mm: float) -> bool:
    """True if the edges (heads, tails) provably within tolerance connect
    points; heads must be ascending.

    Only kept edges are stored: a 0/1 weight per edge would join far
    points, as csgraph counts a stored zero as an edge.
    """
    d = np.take(points, tails, axis=0) - np.take(points, heads, axis=0)
    # A Python float squares to inf past ~1.3e154 without a numpy warning.
    tol = float(tolerance_mm)
    keep = np.einsum("ni,ni->n", d, d) < tol * tol * (1.0 - _EDGE_MARGIN)
    n = len(points)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(heads[keep], minlength=n), out=indptr[1:])
    graph = csr_array((np.ones(indptr[-1]), tails[keep], indptr),
                      shape=(n, n))
    return connected_components(graph, directed=False,
                                return_labels=False) == 1


def euclidean_cluster(cloud: PointCloud,
                      tolerance_mm: float = 10.0) -> list[PointCloud]:
    """Split a cloud into connected components under a distance tolerance.

    Two points are neighbours when their Euclidean distance is <= tolerance;
    clusters are the connected components of that graph (the semantics of
    PCL's Euclidean cluster extraction, without size limits).

    A lattice tries to prove the cloud connected before any radius search.
    Each point is joined to the first point of its own cube of edge
    tolerance / sqrt(3) and of the 13 forward-adjacent cubes
    (`_lattice_edges`). Of those edges only the ones whose squared distance
    is below tolerance^2 by a relative margin are kept; the margin covers
    any rounding difference between numpy and the k-d tree, so every kept
    edge is an edge of the radius graph. If the kept edges connect the
    cloud, the radius graph, which contains them, is connected too: the
    one cluster is the whole cloud in input order, bit for bit what the
    radius path returns. Otherwise, or if the lattice would need 2^62
    cubes or more, the radius path runs.

    Args:
        cloud: Input cloud; its squared bbox diagonal must be finite.
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
    _require_finite_extent(cloud.points)

    edges = _lattice_edges(cloud.points, tolerance_mm)
    if edges is not None and _edges_connect(cloud.points, *edges,
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
