"""Teat segmentation masks and mask-driven point extraction.

Masks come from 2D image segmentation, so a mask is a set of pixels, and
its contour is the lattice boundary that `trace_boundary` draws around
that set: closed, every edge one pixel long along u or v, no vertex
visited twice. `TeatMask` accepts nothing else.

Membership is the even-odd (crossing-number) rule with the half-open edge
convention of `points_in_polygon`, evaluated on the pinhole projection of
each 3D point against the mask's own contour. On a lattice contour that
rule depends only on the unit cell a point falls in, so membership is one
lookup in a parity raster of the bounding box (`_parity_raster`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .cloud import PointCloud
from .errors import InvalidInputError, _check_bound, _is_int

_CHUNK = 4096


@dataclass(frozen=True)
class TeatMask:
    """One teat's segmentation contour for one image.

    Attributes:
        teat_id: Opaque identifier from the segmentation stage.
        stamp_us: Timestamp of the source image in microseconds, an
            integer >= 0.
        contour: (M, 2) integer pixel vertices of the lattice boundary of a
            pixel set, as `trace_boundary` returns it: closing edge
            implicit, every edge one pixel long along u or v, and no vertex
            twice. Two such edges can meet only at a shared vertex, so the
            polygon is simple.
    """

    teat_id: str
    stamp_us: int
    contour: np.ndarray

    def __post_init__(self):
        _check_bound(self, ("stamp_us",), lambda v: _is_int(v) and v >= 0,
                     "an integer >= 0")
        c = np.asarray(self.contour)
        if c.ndim != 2 or c.shape[1] != 2 or len(c) < 3:
            raise InvalidInputError("contour must be (M, 2) with M >= 3")
        cf = np.asarray(c, dtype=float)
        if not np.all(np.isfinite(cf)):
            raise InvalidInputError("contour contains non-finite values")
        # Past 2**53 float64 skips integers, so it cannot tell neighbouring
        # pixels apart; past 2**63 the int64 cast below overflows.
        if np.abs(cf).max() >= 2.0 ** 53:
            raise InvalidInputError(
                "contour vertices must lie within (-2**53, 2**53) pixels")
        ci = np.asarray(np.rint(c), dtype=np.int64)
        if not np.all(cf == ci):
            raise InvalidInputError("contour vertices must be integer pixels")
        if np.any(np.abs(np.roll(ci, -1, axis=0) - ci).sum(axis=1) != 1):
            raise InvalidInputError(
                "contour edges must each be one pixel along u or v "
                "(a traced pixel boundary)")
        if len(np.unique(ci, axis=0)) != len(ci):
            raise InvalidInputError(
                "contour revisits a vertex (polygon not simple)")
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
                   hi: np.ndarray) -> np.ndarray:
    """Even-odd membership of each unit cell of the window [lo, hi].

    Cell [r, c] covers [lo_u + c, lo_u + c + 1) x [lo_v + r, lo_v + r + 1);
    the result has shape (hi_v - lo_v, hi_u - lo_u). poly is a lattice
    contour (see `TeatMask`).

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
    y2 = np.roll(y, -1)
    # A unit vertical edge covers exactly one row, its lower end.
    vertical = y != y2
    rows = np.minimum(y, y2)[vertical] - lo[1]
    # Clipping columns to the window changes no answer inside it: an edge
    # at x >= hi_u lies right of every cell, one at x <= lo_u right of
    # none. Edges on rows outside the window are dropped.
    cols = np.clip(x[vertical], lo[0], hi[0]) - lo[0]
    w, h = hi - lo
    keep = (rows >= 0) & (rows < h)
    covering = np.bincount(rows[keep] * (w + 1) + cols[keep],
                           minlength=h * (w + 1)).reshape(h, w + 1)
    # Cell c counts the covering edges at x > c: a running sum from the
    # right that starts at column c + 1.
    right = np.cumsum(covering[:, :0:-1], axis=1)[:, ::-1]
    return (right & 1).astype(bool)


def extract_masked_points(cloud: PointCloud, mask: TeatMask,
                          camera: CameraModel) -> PointCloud:
    """Keep the cloud points whose projection falls inside the mask contour.

    Points with z <= 0 cannot project and are never kept. Input order is
    preserved.

    Membership is the even-odd rule of `points_in_polygon`, read from the
    lattice contour's parity raster at (floor(u), floor(v)), which gives
    the same answer for every point of a cell (see `_parity_raster`).

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
    col = np.floor(u).astype(np.int64) - lo[0]
    row = np.floor(v).astype(np.int64) - lo[1]
    inside = (col < region.shape[1]) & (row < region.shape[0])
    inside[inside] = region[row[inside], col[inside]]
    return cloud.select(idx[inside])


def rasterize_mask(mask: TeatMask, width: int, height: int) -> np.ndarray:
    """Boolean (height, width) image of pixels whose center is inside the mask.

    This is the lattice contour's parity raster over the part of its
    bounding box inside the image; a cell's value is the answer for every
    point of the cell, the pixel center included. Any part of the contour
    outside the image is clipped away.
    """
    c = mask.contour
    u0 = max(int(c[:, 0].min()), 0)
    u1 = min(int(c[:, 0].max()), width)
    v0 = max(int(c[:, 1].min()), 0)
    v1 = min(int(c[:, 1].max()), height)
    out = np.zeros((height, width), dtype=bool)
    if u1 <= u0 or v1 <= v0:
        return out
    out[v0:v1, u0:u1] = _parity_raster(c, np.array([u0, v0]),
                                       np.array([u1, v1]))
    return out
