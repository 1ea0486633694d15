"""Teat segmentation masks and mask-driven point extraction.

Masks come from 2D image segmentation, so a mask is a set of pixels, and
its contour is the lattice boundary that `trace_boundary` draws around
that set: closed, every edge one pixel long along u or v, no vertex
visited twice. `TeatMask` accepts nothing else.

Membership is the even-odd (crossing-number) rule with a half-open edge
convention, evaluated on the pinhole projection of each camera-frame point
against the mask's own contour. On a lattice contour that rule depends
only on the unit cell a point falls in, so membership is one lookup in a
parity raster of the bounding box (`_parity_raster`).

A frame's cloud is projected once: `project_cells` gives the integer pixel
cell of every point inside the union bounding box of the frame's masks,
and each mask reads its own box from those cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import CameraModel
from .cloud import PointCloud
from .errors import InvalidInputError, _check_bound, _check_count, _is_int

# Read only by perfbench/spans.py HOOKS; the benchmark refresh drops it.
points_in_polygon = None


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
        # With unit edges, M vertices span at most M pixels per axis, so
        # one int64 key per vertex is exact and far cheaper to sort than
        # the rows.
        d = ci - ci.min(axis=0)
        if len(np.unique(d[:, 0] * (d[:, 1].max() + 1) + d[:, 1])) != len(ci):
            raise InvalidInputError(
                "contour revisits a vertex (polygon not simple)")
        object.__setattr__(self, "contour", ci)
        ci.flags.writeable = False

    def __len__(self) -> int:
        return len(self.contour)

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the (u, v) corners of the contour's bounding box."""
        lo, hi = self.contour.min(axis=0), self.contour.max(axis=0)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def bounds_ok(self, width: int, height: int) -> bool:
        lo, hi = self.bbox
        return bool(lo.min() >= 0 and hi[0] <= width and hi[1] <= height)


# -- membership ----------------------------------------------------------------


def _parity_raster(poly: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Even-odd membership of each unit cell of the window [lo, hi].

    Cell [r, c] covers [lo_u + c, lo_u + c + 1) x [lo_v + r, lo_v + r + 1);
    the result has shape (hi_v - lo_v, hi_u - lo_u). poly is a lattice
    contour (see `TeatMask`).

    The even-odd rule is half-open: an edge counts for a point (u, v)
    when exactly one of its endpoints has y > v and it crosses the row v
    strictly right of u. With integer vertices, a horizontal edge never
    counts, and a vertical edge at x counts exactly when
    min y <= v < max y and u < x (its crossing is x itself). Both
    conditions hold for (u, v) exactly when they hold for
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


@dataclass(frozen=True)
class PixelCells:
    """Integer pixel cells of the cloud points that project into a window.

    Attributes:
        cloud, camera: The cloud that was projected and its intrinsics.
        lo, hi: (u, v) integer corners of the window; a point is in it when
            lo <= (u, v) <= hi.
        index: Ascending cloud rows of the points in the window (z > 0).
        col, row: floor(u) and floor(v) of those points.
    """

    cloud: PointCloud
    camera: CameraModel
    lo: np.ndarray
    hi: np.ndarray
    index: np.ndarray
    col: np.ndarray
    row: np.ndarray


def project_cells(cloud: PointCloud, camera: CameraModel,
                  masks) -> PixelCells:
    """Project a camera-frame cloud once for all masks of a frame.

    The window is the union bounding box of the masks whose vertices lie
    inside the image; a mask that reaches off the image does not widen it,
    and a frame with no such mask projects nothing.
    Points are projected as u = fx x / z + cx, v = fy y / z + cy.
    """
    boxes = [m.bbox for m in masks
             if m.bounds_ok(camera.width, camera.height)]
    if not boxes:
        none = np.zeros(0, dtype=np.int64)
        return PixelCells(cloud, camera, np.zeros(2, dtype=np.int64),
                          np.full(2, -1, dtype=np.int64), none, none, none)
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    # The teats of an udder hang side by side, so the window is wider than
    # tall: v is projected for the whole cloud and u only for the points in
    # the window's row span. A NaN or infinite coordinate lies outside the
    # window, so floor and the integer cast see only finite values.
    pts = cloud.points
    z = pts[:, 2].copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = pts[:, 1] * camera.fy
        v /= z
        v += camera.cy
        keep = z > 0
        keep &= v >= lo[1]
        keep &= v <= hi[1]
        idx = np.flatnonzero(keep)
        u = pts[:, 0].take(idx) * camera.fx
        u /= z.take(idx)
        u += camera.cx
    in_cols = (u >= lo[0]) & (u <= hi[0])
    idx = idx[in_cols]
    # The smallest unsigned type that holds the window keeps the per-mask
    # scans of `extract_masked_points` short.
    cell = np.min_scalar_type(int(hi.max()))
    return PixelCells(cloud, camera, lo, hi, idx,
                      np.floor(u[in_cols]).astype(cell),
                      np.floor(v.take(idx)).astype(cell))


def extract_masked_points(cloud: PointCloud, mask: TeatMask,
                          camera: CameraModel,
                          cells: PixelCells | None = None) -> PointCloud:
    """Keep the cloud points whose projection falls inside the mask contour.

    Points with z <= 0 cannot project and are never kept. Input order is
    preserved.

    Membership is the half-open even-odd rule, read from the lattice
    contour's parity raster at (floor(u), floor(v)), which gives
    the same answer for every point of a cell (see `_parity_raster`). The
    bounding-box prefilter is exact: nothing outside the hull can be inside.

    Args:
        cloud: Camera-frame cloud.
        mask: Contour to test against; vertices must lie inside the image.
        camera: Intrinsics used for the projection.
        cells: `project_cells` of this cloud and camera over a window that
            holds the mask's bounding box, shared by the masks of a frame;
            by default the cloud is projected over the mask's own box.

    Returns:
        The in-mask subset as a new PointCloud.
    """
    if not mask.bounds_ok(camera.width, camera.height):
        raise InvalidInputError(
            f"mask {mask.teat_id!r} has vertices outside the image")
    if cells is None:
        cells = project_cells(cloud, camera, (mask,))
    poly = mask.contour
    lo, hi = mask.bbox
    if (cells.cloud is not cloud or cells.camera is not camera
            or np.any(lo < cells.lo) or np.any(hi > cells.hi)):
        raise InvalidInputError(
            f"cells do not cover mask {mask.teat_id!r} of this cloud and "
            "camera")
    # Cells with floor(u) == hi_u or floor(v) == hi_v have no covering
    # edge and are outside (see `_parity_raster`).
    col, row = cells.col, cells.row
    (u0, v0), (u1, v1) = lo.tolist(), hi.tolist()
    hit = np.flatnonzero((col >= u0) & (col < u1) & (row >= v0) & (row < v1))
    region = _parity_raster(poly, lo, hi)
    inside = region[row[hit] - v0, col[hit] - u0]
    return cloud.select(cells.index[hit[inside]])


def rasterize_mask(mask: TeatMask, width: int, height: int) -> np.ndarray:
    """Boolean (height, width) image of pixels whose center is inside the mask.

    This is the lattice contour's parity raster over the part of its
    bounding box inside the image; a cell's value is the answer for every
    point of the cell, the pixel center included. Any part of the contour
    outside the image is clipped away.
    """
    _check_count("width", width)
    _check_count("height", height)
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
