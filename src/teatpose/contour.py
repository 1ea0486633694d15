"""Border-following for pixel label sets.

Pixels are unit cells: pixel (u, v) covers [u, u+1] x [v, v+1], its sample
point sits at the center (u+0.5, v+0.5). The traced contour is the lattice
boundary of the cell union, so every region pixel center is at least 0.5 px
inside the polygon and every outside center at least 0.5 px outside.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def largest_component(region: np.ndarray) -> np.ndarray:
    """Largest 4-connected component of a boolean image (empty stays empty)."""
    labels, n = ndimage.label(region, structure=_FOUR_CONN)
    if n == 0:
        return np.zeros_like(region)
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    return labels == int(np.argmax(counts))


def _pinch_removals(region: np.ndarray) -> np.ndarray:
    """Pixels to drop so no 2x2 block holds only a diagonal pair.

    Such blocks make the cell-union boundary touch itself at a lattice point;
    dropping the lexicographically larger pixel of the pair restores a simple
    boundary while only ever shrinking the region.
    """
    a = region[:-1, :-1]
    b = region[:-1, 1:]
    c = region[1:, :-1]
    d = region[1:, 1:]
    drop = np.zeros_like(region)
    diag = a & d & ~b & ~c
    drop[1:, 1:] |= diag          # drop d, the (row+1, col+1) pixel
    anti = b & c & ~a & ~d
    drop[1:, :-1] |= anti         # drop c, the (row+1, col) pixel
    return drop


def clean_region(region: np.ndarray) -> np.ndarray:
    """Reduce a pixel set to one simple-boundary region.

    Keeps the largest 4-connected component, fills interior holes, and drops
    diagonal pinch pixels. Smooth convex-ish blobs (every scene this package
    generates) pass through unchanged; the loop only bites on pathological
    shapes.
    """
    m = region.astype(bool)
    for _ in range(64):
        m = largest_component(m)
        if not m.any():
            return m
        m = ndimage.binary_fill_holes(m)
        drop = _pinch_removals(m)
        if not drop.any():
            return m
        m = m & ~drop
    return m


def trace_boundary(region: np.ndarray) -> np.ndarray:
    """Closed lattice polygon around a cleaned boolean region.

    Args:
        region: (H, W) boolean image; must be a single 4-connected,
            hole-free, pinch-free component (see clean_region). A crop of a
            larger image is valid input.

    Returns:
        (M, 2) int array of (u, v) lattice vertices in unit steps, closed
        implicitly (last connects to first), in region's own coordinates.
        For a crop, adding the image (u, v) of its top-left pixel gives the
        contour in image coordinates; the start vertex, the smallest
        (u, v), does not change under that offset.
    """
    if not region.any():
        raise ValueError("cannot trace an empty region")
    p = np.zeros((region.shape[0] + 2, region.shape[1] + 2), dtype=bool)
    p[1:-1, 1:-1] = region

    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def link(pt1, pt2):
        adj.setdefault(pt1, []).append(pt2)
        adj.setdefault(pt2, []).append(pt1)

    # Vertical cell edges at x=u between pixels (v, u-1) and (v, u).
    vd = p[1:-1, 1:] != p[1:-1, :-1]
    for v, u in zip(*np.nonzero(vd)):
        link((u, v), (u, v + 1))
    # Horizontal cell edges at y=v between pixels (v-1, u) and (v, u).
    hd = p[1:, 1:-1] != p[:-1, 1:-1]
    for v, u in zip(*np.nonzero(hd)):
        link((u, v), (u + 1, v))

    start = min(adj)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise ValueError("region boundary is not a simple closed curve")

    verts = [start]
    prev = None
    cur = start
    while True:
        n1, n2 = adj[cur]
        nxt = n2 if n1 == prev else n1
        if nxt == start:
            break
        verts.append(nxt)
        prev, cur = cur, nxt
    if len(verts) != len(adj):
        raise ValueError("region boundary has more than one loop")
    return np.array(verts, dtype=np.int64)
