"""Teat segmentation masks and mask-driven point extraction.

Masks come from 2D image segmentation, so a mask is a set of pixels: a
boolean region trimmed to its bounding box, and the image (u, v) of its
top-left pixel. A camera-frame point is in the mask when its pinhole
projection's cell (floor(u), floor(v)) is one of those pixels.

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
from .contour import trace_boundary
from .errors import InvalidInputError, _check_bound, _check_count, _is_int

# Read only by perfbench/spans.py HOOKS; the benchmark refresh drops it.
points_in_polygon = None


@dataclass(frozen=True)
class TeatMask:
    """One teat's segmented pixel set for one image.

    Attributes:
        teat_id: Opaque identifier from the segmentation stage.
        stamp_us: Timestamp of the source image in microseconds, an
            integer >= 0.
        region: 2-D boolean array of the set's pixels, row v and column u;
            a full-image segmentation may be passed as it is. It is stored
            trimmed to the set's bounding box, read-only.
        origin: Integer image (u, v) of region[0, 0]; stored as the (u, v)
            of the trimmed region's top-left pixel.
    """

    teat_id: str
    stamp_us: int
    region: np.ndarray
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self):
        _check_bound(self, ("stamp_us",), lambda v: _is_int(v) and v >= 0,
                     "an integer >= 0")
        r = self.region
        if not (isinstance(r, np.ndarray) and r.ndim == 2
                and r.dtype == bool):
            raise InvalidInputError("region must be a 2-D boolean array")
        o = self.origin
        if not (isinstance(o, tuple) and len(o) == 2
                and all(_is_int(x) for x in o)):
            raise InvalidInputError(
                f"origin must be a (u, v) pair of integers, got {o!r}")
        rows = np.flatnonzero(r.any(axis=1))
        if not len(rows):
            raise InvalidInputError("region holds no pixel")
        cols = np.flatnonzero(r.any(axis=0))
        lo = (int(o[0]) + int(cols[0]), int(o[1]) + int(rows[0]))
        hi = (int(o[0]) + int(cols[-1]) + 1, int(o[1]) + int(rows[-1]) + 1)
        # Past 2**53 float64 skips integers, so a projected point's floor
        # cannot tell neighbouring pixels apart.
        if max(map(abs, lo + hi)) >= 2 ** 53:
            raise InvalidInputError(
                "mask corners must lie within (-2**53, 2**53) pixels")
        r = r[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].copy()
        r.flags.writeable = False
        object.__setattr__(self, "region", r)
        object.__setattr__(self, "origin", lo)

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the (u, v) corners of the region's bounding box; hi is
        one past the last pixel."""
        lo = np.array(self.origin, dtype=np.int64)
        hi = lo + self.region.shape[::-1]
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @cached_property
    def contour(self) -> np.ndarray:
        """(M, 2) integer image vertices of the region's lattice boundary,
        as `trace_boundary` draws it; ValueError unless the set is one
        4-connected region without holes or diagonal pinches."""
        c = trace_boundary(self.region) + self.origin
        c.flags.writeable = False
        return c

    def bounds_ok(self, width: int, height: int) -> bool:
        lo, hi = self.bbox
        return bool(lo.min() >= 0 and hi[0] <= width and hi[1] <= height)


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

    The window is the union bounding box of the masks that lie inside the
    image; a mask that reaches off the image does not widen it,
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
    """Keep the cloud points whose projection's pixel cell is in the mask.

    A point is kept when its cell (floor(u), floor(v)) is one of the mask's
    pixels. Points with z <= 0 cannot project and are never kept. Input
    order is preserved.

    Args:
        cloud: Camera-frame cloud.
        mask: Pixel set to test against; it must lie inside the image.
        camera: Intrinsics used for the projection.
        cells: `project_cells` of this cloud and camera over a window that
            holds the mask's bounding box, shared by the masks of a frame;
            by default the cloud is projected over the mask's own box.

    Returns:
        The in-mask subset as a new PointCloud.
    """
    if not mask.bounds_ok(camera.width, camera.height):
        raise InvalidInputError(
            f"mask {mask.teat_id!r} has pixels outside the image")
    if cells is None:
        cells = project_cells(cloud, camera, (mask,))
    lo, hi = mask.bbox
    if (cells.cloud is not cloud or cells.camera is not camera
            or np.any(lo < cells.lo) or np.any(hi > cells.hi)):
        raise InvalidInputError(
            f"cells do not cover mask {mask.teat_id!r} of this cloud and "
            "camera")
    col, row = cells.col, cells.row
    (u0, v0), (u1, v1) = lo.tolist(), hi.tolist()
    hit = np.flatnonzero((col >= u0) & (col < u1) & (row >= v0) & (row < v1))
    inside = mask.region[row[hit] - v0, col[hit] - u0]
    return cloud.select(cells.index[hit[inside]])


def rasterize_mask(mask: TeatMask, width: int, height: int) -> np.ndarray:
    """Boolean (height, width) image of the mask's pixels; any part of the
    region outside the image is clipped away."""
    _check_count("width", width)
    _check_count("height", height)
    lo, hi = mask.bbox
    (u0, v0), (u1, v1) = lo.tolist(), hi.tolist()
    cu0, cv0 = max(u0, 0), max(v0, 0)
    cu1, cv1 = min(u1, width), min(v1, height)
    out = np.zeros((height, width), dtype=bool)
    if cu0 < cu1 and cv0 < cv1:
        out[cv0:cv1, cu0:cu1] = mask.region[cv0 - v0:cv1 - v0,
                                            cu0 - u0:cu1 - u0]
    return out
