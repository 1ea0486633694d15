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
_EIGHT_CONN = np.ones((3, 3), dtype=bool)


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


def _hole_cuts(region: np.ndarray) -> np.ndarray:
    """Pixels to drop so that every hole opens to the outside.

    A hole is an 8-connected background component off the image border (a
    pocket open only at a corner is a pinch). The region pixels in the
    column above a hole's top pixel, up to the nearest outside pixel or
    the border, are dropped.
    """
    labels, n = ndimage.label(~region, structure=_EIGHT_CONN)
    outside = np.zeros(n + 1, dtype=bool)
    outside[np.concatenate((labels[0], labels[-1],
                            labels[:, 0], labels[:, -1]))] = True
    outside[0] = False  # label 0 is the region itself
    drop = np.zeros_like(region)
    if outside[1:].all():
        return drop
    boxes = ndimage.find_objects(labels)
    for i in np.flatnonzero(~outside[1:]).tolist():
        top = boxes[i][0].start  # hole i has label i + 1
        col = int(np.argmax(labels[top] == i + 1))
        out = np.flatnonzero(outside[labels[:top, col]])
        drop[out[-1] + 1 if len(out) else 0:top, col] = True
    return drop & region


def clean_region(region: np.ndarray) -> np.ndarray:
    """Reduce a pixel set to one simple-boundary region by removing pixels.

    Keeps the largest 4-connected component, cuts interior holes open and
    drops diagonal pinch pixels; it never adds one, so an occluded pixel
    stays out. Smooth convex-ish blobs (every scene this package generates)
    pass through unchanged; the loop only bites on pathological shapes.
    """
    m = region.astype(bool)
    for _ in range(64):
        m = largest_component(m)
        if not m.any():
            return m
        drop = _hole_cuts(m) | _pinch_removals(m)
        if not drop.any():
            return m
        m = m & ~drop
    return m


def trace_boundary(region: np.ndarray) -> np.ndarray:
    """Closed lattice polygon around a cleaned boolean region.

    Every boundary unit edge is directed with the region on its left as the
    image is seen (u right, v down): counter-clockwise on screen. On a simple
    boundary each vertex then has exactly one outgoing edge, and the walk
    follows those from the smallest (u, v).

    Args:
        region: (H, W) boolean image; must be a single 4-connected,
            hole-free, pinch-free component (see clean_region). A crop of a
            larger image is valid input.

    Returns:
        (M, 2) int array of (u, v) lattice vertices in unit steps, closed
        implicitly (last connects to first), in region's own coordinates.
        The walk starts down the left edge (+v) of the smallest (u, v).
        For a crop, adding the image (u, v) of its top-left pixel gives the
        contour in image coordinates; the start vertex does not change
        under that offset.
    """
    if not region.any():
        raise ValueError("cannot trace an empty region")
    p = np.pad(region.astype(bool), 1)
    left, right = p[1:-1, :-1], p[1:-1, 1:]
    above, below = p[:-1, 1:-1], p[1:, 1:-1]
    # key[v, u] = u * s + v names vertex (u, v); key order is (u, v) order.
    s = region.shape[0] + 1
    key = np.arange(s * (region.shape[1] + 1)).reshape(-1, s).T
    # Tail keys, head keys and the cell edges that run that way.
    edges = ((key[:-1], key[1:], right & ~left),            # +v
             (key[1:], key[:-1], left & ~right),            # -v
             (key[:, :-1], key[:, 1:], above & ~below),     # +u
             (key[:, 1:], key[:, :-1], below & ~above))     # -u
    tails = np.concatenate([t[e] for t, _, e in edges]).tolist()
    heads = np.concatenate([h[e] for _, h, e in edges]).tolist()
    succ = dict(zip(tails, heads))
    # A diagonal pinch is a vertex with two outgoing edges.
    if len(succ) != len(tails):
        raise ValueError("region boundary is not a simple closed curve")
    start = min(succ)
    walk = [start]
    while (nxt := succ[walk[-1]]) != start:
        walk.append(nxt)
    if len(walk) != len(succ):
        raise ValueError("region boundary has more than one loop")
    return np.stack(np.divmod(np.array(walk, dtype=np.int64), s), axis=1)
