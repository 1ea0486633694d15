"""Teat segmentation masks and mask-driven point extraction.

A mask is a closed integer-pixel contour polygon. Membership is the even-odd
(crossing-number) rule with the half-open edge convention, evaluated on the
pinhole projection of each 3D point against the mask's own contour.

When every edge of the polygon is axis-aligned, as in every contour that
`trace_boundary` emits, the rule depends only on the unit cell a point falls
in, so membership is one lookup in a parity raster of the bounding box
(`_parity_raster`) instead of one crossing test per edge. Other polygons
(hand-made masks) go through `points_in_polygon`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .cloud import PointCloud
from .errors import InvalidInputError

_CHUNK = 4096


def _segments_cross(contour: np.ndarray) -> bool:
    """True if any two non-adjacent edges of the closed polygon intersect.

    Integer coordinates make every orientation test exact.
    """
    n = len(contour)
    p1 = contour
    p2 = np.roll(contour, -1, axis=0)
    for i in range(n - 2):
        # Skip the two neighbours of edge i (shared-endpoint contact is legal).
        js = np.arange(i + 2, n - 1 if i == 0 else n)
        if len(js) == 0:
            continue
        a1, a2 = p1[i], p2[i]
        b1, b2 = p1[js], p2[js]
        d = a2 - a1
        e = b2 - b1
        d1 = e[:, 0] * (a1[1] - b1[:, 1]) - e[:, 1] * (a1[0] - b1[:, 0])
        d2 = e[:, 0] * (a2[1] - b1[:, 1]) - e[:, 1] * (a2[0] - b1[:, 0])
        d3 = d[0] * (b1[:, 1] - a1[1]) - d[1] * (b1[:, 0] - a1[0])
        d4 = d[0] * (b2[:, 1] - a1[1]) - d[1] * (b2[:, 0] - a1[0])
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        if np.any(proper):
            return True

        def on_seg(s1, s2, q, dz):
            lo = np.minimum(s1, s2)
            hi = np.maximum(s1, s2)
            return (dz == 0) & np.all((q >= lo) & (q <= hi), axis=-1)

        touch = (on_seg(b1, b2, a1, d1) | on_seg(b1, b2, a2, d2)
                 | on_seg(a1, a2, b1, d3) | on_seg(a1, a2, b2, d4))
        if np.any(touch):
            return True
    return False


def _validate_simple(contour: np.ndarray) -> None:
    n = len(contour)
    nxt = np.roll(contour, -1, axis=0)
    if np.any(np.all(contour == nxt, axis=1)):
        raise InvalidInputError("contour has a zero-length edge")
    uniq = np.unique(contour, axis=0)
    if len(uniq) != n:
        raise InvalidInputError("contour revisits a vertex (polygon not simple)")
    edges = nxt - contour
    prev = np.roll(edges, 1, axis=0)
    cross = prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0]
    dot = prev[:, 0] * edges[:, 0] + prev[:, 1] * edges[:, 1]
    if np.any((cross == 0) & (dot < 0)):
        raise InvalidInputError("contour folds back on itself (polygon not simple)")
    # Unit axis-aligned edges with distinct vertices cannot cross; skip O(n^2).
    if np.all(np.abs(edges).sum(axis=1) == 1):
        return
    if _segments_cross(contour):
        raise InvalidInputError("contour is self-intersecting (polygon not simple)")


@dataclass(frozen=True)
class TeatMask:
    """One teat's segmentation contour for one image.

    Attributes:
        teat_id: Opaque identifier from the segmentation stage.
        stamp_us: Timestamp of the source image in microseconds.
        contour: (M, 2) integer pixel vertices of a simple closed polygon
            (closing edge implicit).
    """

    teat_id: str
    stamp_us: int
    contour: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.contour)
        if c.ndim != 2 or c.shape[1] != 2 or len(c) < 3:
            raise InvalidInputError("contour must be (M, 2) with M >= 3")
        if not np.all(np.isfinite(np.asarray(c, dtype=float))):
            raise InvalidInputError("contour contains non-finite values")
        ci = np.asarray(np.rint(c), dtype=np.int64)
        if not np.all(np.asarray(c, dtype=float) == ci):
            raise InvalidInputError("contour vertices must be integer pixels")
        _validate_simple(ci)
        object.__setattr__(self, "contour", ci)
        ci.flags.writeable = False

    def __len__(self) -> int:
        return len(self.contour)

    def bounds_ok(self, width: int, height: int) -> bool:
        c = self.contour
        return bool(np.all((c[:, 0] >= 0) & (c[:, 0] <= width)
                           & (c[:, 1] >= 0) & (c[:, 1] <= height)))


# -- membership ----------------------------------------------------------------


def points_in_polygon(uv: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd membership of 2D points in a closed polygon.

    Half-open crossing rule: an edge counts when exactly one endpoint lies
    strictly above the query row, and the crossing is strictly right of the
    point. Vertices and edge interiors therefore resolve deterministically.
    """
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    dy = y2 - y1
    inside = np.zeros(len(uv), dtype=bool)
    for lo in range(0, len(uv), _CHUNK):
        pu = uv[lo:lo + _CHUNK, 0][:, None]
        pv = uv[lo:lo + _CHUNK, 1][:, None]
        cond = (y1 > pv) != (y2 > pv)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (pv - y1) * (x2 - x1) / dy
        cross = cond & (pu < xint)
        inside[lo:lo + _CHUNK] = (cross.sum(axis=1) % 2).astype(bool)
    return inside


def _parity_raster(poly: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray | None:
    """Even-odd membership of each unit cell of the window [lo, hi].

    Cell [r, c] covers [lo_u + c, lo_u + c + 1) x [lo_v + r, lo_v + r + 1);
    the result has shape (hi_v - lo_v, hi_u - lo_u). Returns None unless
    every edge of the polygon is axis-aligned.

    Under the half-open rule of `points_in_polygon` with integer vertices,
    a horizontal edge never counts, and a vertical edge at x counts for a
    point (u, v) exactly when min y <= v < max y and u < x (its crossing is
    x itself). Both conditions hold for (u, v) exactly when they hold for
    (floor(u), floor(v)), so every point of a cell gets the cell's answer:
    the parity of the vertical edges that cover its row and lie right of it.
    With the polygon's bounding box as the window, points with
    floor(u) == hi_u or floor(v) == hi_v have no such edge and are outside.
    """
    x, y = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    vertical = x == x2
    if not np.all(vertical | (y == y2)):
        return None
    w, h = hi - lo
    # Clipping to the window changes no answer inside it: an edge at
    # x >= hi_u lies right of every cell, one at x <= lo_u right of none,
    # and rows outside the window are never read.
    cols = np.tile(np.clip(x[vertical], lo[0], hi[0]) - lo[0], 2)
    rows = np.clip(np.concatenate([y[vertical], y2[vertical]]),
                   lo[1], hi[1]) - lo[1]
    # Each vertical edge toggles its column at both end rows; a running sum
    # down each column then counts the edges that cover a row.
    toggles = np.bincount(rows * (w + 1) + cols, minlength=(h + 1) * (w + 1))
    covering = np.cumsum(toggles.reshape(h + 1, w + 1)[:h], axis=0)
    # Cell c counts the covering edges at x > c: a running sum from the
    # right that starts at column c + 1.
    right = np.cumsum(covering[:, :0:-1], axis=1)[:, ::-1]
    return (right & 1).astype(bool)


def extract_masked_points(cloud: PointCloud, mask: TeatMask,
                          camera: CameraModel) -> PointCloud:
    """Keep the cloud points whose projection falls inside the mask contour.

    Points with z <= 0 cannot project and are never kept. Input order is
    preserved.

    Membership is the even-odd rule of `points_in_polygon`. When every edge
    of the contour is axis-aligned (any contour from `trace_boundary`), it
    is read from the contour's parity raster at (floor(u), floor(v)), which
    gives the same answer for every point (see `_parity_raster`); otherwise
    `points_in_polygon` tests each candidate.

    Args:
        cloud: Camera-frame cloud.
        mask: Contour to test against; vertices must lie inside the image.
        camera: Intrinsics used for the projection.

    Returns:
        The in-mask subset as a new PointCloud.
    """
    cloud.require_frame("camera", "extract_masked_points")
    if not mask.bounds_ok(camera.width, camera.height):
        raise InvalidInputError(
            f"mask {mask.teat_id!r} has vertices outside the image")
    poly = mask.contour
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)

    # Bounding-box prefilter is exact: nothing outside the hull can be inside.
    # u is projected for the whole cloud and v only for the points in the
    # box's column span, so most of the cloud is never copied.
    pts = cloud.points
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * pts[:, 0] / z + camera.cx
    idx = np.flatnonzero((z > 0) & (u >= lo[0]) & (u <= hi[0]))
    v = camera.fy * pts[idx, 1] / z[idx] + camera.cy
    in_rows = (v >= lo[1]) & (v <= hi[1])
    idx = idx[in_rows]
    u = u[idx]
    v = v[in_rows]
    region = _parity_raster(poly, lo, hi)
    if region is None:
        if len(idx):
            idx = idx[points_in_polygon(np.column_stack([u, v]), poly)]
    else:
        col = np.floor(u).astype(np.int64) - lo[0]
        row = np.floor(v).astype(np.int64) - lo[1]
        inside = (col < region.shape[1]) & (row < region.shape[0])
        inside[inside] = region[row[inside], col[inside]]
        idx = idx[inside]
    return cloud.select(idx)


def rasterize_mask(mask: TeatMask, width: int, height: int) -> np.ndarray:
    """Boolean (height, width) image of pixels whose center is inside the mask.

    For an axis-aligned contour (any contour from `trace_boundary`) this is
    the contour's parity raster over the part of its bounding box inside
    the image; a cell's value is the answer for every point of the cell,
    the pixel center included. Other contours test each pixel center with
    `points_in_polygon`.
    """
    c = mask.contour
    u0 = max(int(c[:, 0].min()), 0)
    u1 = min(int(c[:, 0].max()), width)
    v0 = max(int(c[:, 1].min()), 0)
    v1 = min(int(c[:, 1].max()), height)
    out = np.zeros((height, width), dtype=bool)
    if u1 <= u0 or v1 <= v0:
        return out
    region = _parity_raster(c, np.array([u0, v0]), np.array([u1, v1]))
    if region is None:
        uu, vv = np.meshgrid(np.arange(u0, u1) + 0.5,
                             np.arange(v0, v1) + 0.5)
        uv = np.column_stack([uu.ravel(), vv.ravel()])
        region = points_in_polygon(uv, c).reshape(v1 - v0, u1 - u0)
    out[v0:v1, u0:u1] = region
    return out
