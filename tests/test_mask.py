"""Mask pixel sets, membership, and frustum-extraction tests.

A mask is a pixel set, and a point is in it when the cell (floor(u),
floor(v)) of its pinhole projection is one of the set's pixels;
`_lookup` evaluates that rule point by point. The region's traced boundary
(`TeatMask.contour`) ties the set to the even-odd rule with the half-open
crossing test. Two references evaluate that rule: the scalar oracle below,
point by point, and the vectorized `_oracles.points_in_polygon`, which the
scalar oracle checks. On a cleaned region, extraction must agree with both
on every single point, including points exactly on grid lines.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from _lattice import rect_mask, unit_steps
from _oracles import backproject, points_in_polygon
from teatpose.camera import CameraModel
from teatpose.cloud import PointCloud
from teatpose.contour import clean_region
from teatpose.errors import InvalidInputError
from teatpose.mask import (TeatMask, extract_masked_points, project_cells,
                           rasterize_mask)


def _point_in_polygon_scalar(u: float, v: float, poly: np.ndarray) -> bool:
    """Reference even-odd test, one point at a time, identical crossing rule."""
    inside = False
    # Python floats: the same arithmetic as numpy scalars, at a fraction of
    # the cost on long lattice contours.
    u, v = float(u), float(v)
    verts = np.asarray(poly, dtype=float).tolist()
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if (y1 > v) != (y2 > v):
            xint = x1 + (v - y1) * (x2 - x1) / (y2 - y1)
            if u < xint:
                inside = not inside
    return inside


def _lookup(points: np.ndarray, mask: TeatMask,
            camera: CameraModel) -> np.ndarray:
    """Brute-force membership of each point: `camera.project`, floor, then
    a lookup in the set of the mask's image pixels."""
    rows, cols = np.nonzero(mask.region)
    pixels = set(zip((cols + mask.origin[0]).tolist(),
                     (rows + mask.origin[1]).tolist()))
    keep = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points):
        if p[2] > 0:
            u, v = camera.project(p).tolist()
            keep[i] = (math.isfinite(u) and math.isfinite(v)
                       and (math.floor(u), math.floor(v)) in pixels)
    return keep


def _disc(radius: float, center, teat_id="T1") -> TeatMask:
    """Mask of the pixels whose centre lies within radius of center."""
    cu, cv = center
    u0 = int(np.floor(cu - radius)) - 1
    v0 = int(np.floor(cv - radius)) - 1
    n = int(np.ceil(2 * radius)) + 3
    vv, uu = np.mgrid[v0:v0 + n, u0:u0 + n] + 0.5
    disc = (uu - cu) ** 2 + (vv - cv) ** 2 <= radius ** 2
    return TeatMask(teat_id, 0, disc, (u0, v0))


def _square(teat_id="T1", stamp=0, lo=100, hi=200) -> TeatMask:
    return rect_mask(lo, lo, hi, hi, teat_id=teat_id, stamp_us=stamp)


def _full_image() -> TeatMask:
    return TeatMask("T1", 0, np.ones((480, 640), dtype=bool))


def _square_corners(lo=100, hi=200) -> np.ndarray:
    return np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])


def _circle_contour(n: int, radius: float, center=(320, 240)) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.rint(np.column_stack([center[0] + radius * np.cos(theta),
                                   center[1] + radius * np.sin(theta)]))
    return pts.astype(int)


def _grid_queries(lo, hi) -> np.ndarray:
    """(u, v) on every grid line of the box [lo - 1, hi + 1], one ulp
    either side of each, and on every pixel centre, in every combination."""
    axes = []
    for a in range(2):
        g = np.arange(lo[a] - 1.0, hi[a] + 2.0)
        axes.append(np.concatenate([g, np.nextafter(g, -np.inf),
                                    np.nextafter(g, np.inf), g + 0.5]))
    uu, vv = np.meshgrid(*axes)
    return np.column_stack([uu.ravel(), vv.ravel()])


def _image_grid(width: int, height: int) -> PointCloud:
    """One point at z = 1 per pixel centre of a width x height image."""
    uu, vv = np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5)
    return PointCloud(np.column_stack([uu.ravel(), vv.ravel(),
                                       np.ones(uu.size)]))


class TestTeatMask:
    def test_rejects_empty_region(self):
        with pytest.raises(InvalidInputError, match="no pixel"):
            TeatMask("T1", 0, np.zeros((4, 5), dtype=bool))

    @pytest.mark.parametrize("region", [
        np.ones(5, dtype=bool), np.ones((2, 3, 4), dtype=bool),
        np.ones((3, 3), dtype=np.uint8), np.ones((3, 3)),
        [[True, False], [True, True]]],
        ids=["one_d", "three_d", "uint8", "float", "nested_list"])
    def test_rejects_region_that_is_not_a_2d_boolean_array(self, region):
        with pytest.raises(InvalidInputError, match="2-D boolean"):
            TeatMask("T1", 0, region)

    def test_rejects_fractional_vertices(self):
        # The origin is the top-left vertex of region[0, 0].
        with pytest.raises(InvalidInputError, match="origin"):
            TeatMask("T1", 0, np.ones((2, 2), dtype=bool), (0.5, 0))

    @pytest.mark.parametrize("origin", [
        (1e19, 0.0), (3.0, 4), (np.float64(3.0), 4), (True, 0), (0, False),
        (3,), (1, 2, 3), [3, 4], "uv"],
        ids=["float_1e19", "integral_float", "numpy_float", "bool_u",
             "bool_v", "one_value", "three_values", "list", "str"])
    def test_rejects_non_integer_origin(self, origin):
        with pytest.raises(InvalidInputError, match="origin"):
            TeatMask("T1", 0, np.ones((2, 2), dtype=bool), origin)

    def test_rejects_self_intersection(self):
        # Two pixels that touch only at a corner: a valid pixel set, whose
        # boundary touches itself, so it has no simple contour.
        mask = TeatMask("T1", 0, np.fliplr(np.eye(2, dtype=bool)), (3, 4))
        assert mask.bbox[0].tolist() == [3, 4]
        with pytest.raises(ValueError, match="not a simple closed curve"):
            mask.contour

    @pytest.mark.parametrize("contour", [
        # Two unit squares that touch at the vertex (1, 1).
        [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [1, 1], [0, 1]],
    ], ids=["figure_eight"])
    def test_rejects_non_lattice_contour(self, contour):
        # The pixels a lattice walk that revisits a vertex encloses form a
        # valid mask, but tracing them cannot give that walk back.
        contour = np.array(contour)
        vv, uu = np.mgrid[0:2, 0:2] + 0.5
        centres = np.column_stack([uu.ravel(), vv.ravel()])
        region = points_in_polygon(centres, contour).reshape(2, 2)
        np.testing.assert_array_equal(region, np.eye(2, dtype=bool))
        mask = TeatMask("T1", 0, region)
        with pytest.raises(ValueError, match="not a simple closed curve"):
            mask.contour

    @pytest.mark.parametrize("region", [
        np.pad(np.pad(np.zeros((2, 3), dtype=bool), 2, constant_values=True),
               1),
        np.array([[1, 1, 0, 0, 1], [1, 1, 0, 1, 1]], dtype=bool)],
        ids=["hole", "two_components"])
    def test_contour_needs_one_simple_region(self, region):
        mask = TeatMask("T1", 0, region)
        with pytest.raises(ValueError, match="more than one loop"):
            mask.contour

    def test_accepts_concave_simple_polygon(self):
        lshape = np.ones((20, 20), dtype=bool)
        lshape[10:, 10:] = False
        mask = TeatMask("T1", 0, lshape, (-3, 5))
        expected = unit_steps([[0, 0], [0, 20], [10, 20], [10, 10],
                               [20, 10], [20, 0]]) + (-3, 5)
        np.testing.assert_array_equal(mask.contour, expected)
        assert len(mask.contour) == 80

    def test_trims_to_the_bounding_box(self):
        # A full-image segmentation goes in as it is; the mask keeps only
        # its box, read-only, and does not alias the caller's array.
        full = np.zeros((480, 640), dtype=bool)
        full[200:230, 300:320] = True
        full[229, 300] = False
        mask = TeatMask("T1", 0, full)
        np.testing.assert_array_equal(mask.region, full[200:230, 300:320])
        assert mask.origin == (300, 200)
        assert [c.tolist() for c in mask.bbox] == [[300, 200], [320, 230]]
        assert not mask.region.flags.writeable
        full[:] = False
        assert mask.region.sum() == 30 * 20 - 1
        np.testing.assert_array_equal(rasterize_mask(mask, 640, 480)
                                      [200:230, 300:320],
                                      mask.region)

    @pytest.mark.parametrize("origin", [
        (np.int64(2**63 - 1), 0), (0, -2**63),
        (np.uint64(10**19), 0), (2**53 - 1, 0), (0, -2**53)],
        ids=["int64_extremes", "int64_min", "uint64_1e19",
             "float64_integer_limit", "negative_limit"])
    def test_rejects_vertices_beyond_exact_float_integers(self, origin):
        # A corner of the box past 2**53: float64 can no longer tell
        # neighbouring pixels apart.
        with pytest.raises(InvalidInputError, match="2\\*\\*53"):
            TeatMask("T1", 0, np.ones((1, 1), dtype=bool), origin)

    def test_accepts_vertices_just_inside_the_limit(self):
        mask = TeatMask("T1", 0, np.ones((1, 1), dtype=bool),
                        (2**53 - 2, -2**53 + 1))
        assert mask.bbox[1].max() == 2**53 - 1
        assert mask.bbox[0].min() == -2**53 + 1

    def test_bounds_check_closed_rectangle(self):
        mask = _full_image()
        assert mask.bounds_ok(640, 480)
        assert not mask.bounds_ok(639, 480)


class TestPointsInPolygon:
    def test_square_interior_exterior(self):
        poly = _square_corners()
        uv = np.array([[150.0, 150.0], [99.0, 150.0], [201.0, 150.0],
                       [150.0, 99.0]])
        np.testing.assert_array_equal(points_in_polygon(uv, poly),
                                      [True, False, False, False])

    def test_concave_notch(self):
        lshape = np.array([[0, 0], [20, 0], [20, 10], [10, 10],
                           [10, 20], [0, 20]])
        assert points_in_polygon(np.array([[5.0, 15.0]]), lshape)[0]
        assert not points_in_polygon(np.array([[15.0, 15.0]]), lshape)[0]

    def test_matches_scalar_oracle_on_random_points(self):
        rng = np.random.default_rng(77)
        shapes = [
            _square_corners(),
            np.array([[0, 0], [20, 0], [20, 10], [10, 10], [10, 20], [0, 20]]),
            _circle_contour(60, 90.0),
            _circle_contour(9, 40.0, center=(80, 300)),
        ]
        for poly in shapes:
            lo = poly.min(axis=0) - 5
            hi = poly.max(axis=0) + 5
            uv = rng.uniform(lo, hi, size=(2000, 2))
            # Include exact vertex rows and integer lattice points: the
            # half-open rule must resolve them the same way in both paths.
            uv = np.vstack([uv, poly.astype(float),
                            np.floor(uv[:200]) + 0.5])
            got = points_in_polygon(uv, poly)
            expected = [_point_in_polygon_scalar(u, v, poly) for u, v in uv]
            np.testing.assert_array_equal(got, expected)


class TestExtractMaskedPoints:
    def _camera(self):
        return CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0)

    def _cloud_grid(self, depth=600.0):
        cam = self._camera()
        uu, vv = np.meshgrid(np.linspace(5, 635, 64), np.linspace(5, 475, 48))
        pts = np.array([backproject(cam, (u, v), depth)
                        for u, v in zip(uu.ravel(), vv.ravel())])
        return PointCloud(pts)

    def test_full_image_square_keeps_everything(self):
        mask = _full_image()
        cloud = self._cloud_grid()
        out = extract_masked_points(cloud, mask, self._camera())
        assert len(out) == len(cloud)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_zero_overlap_gives_empty(self):
        mask = rect_mask(0, 0, 2, 2)
        cloud = self._cloud_grid()
        out = extract_masked_points(cloud, mask, self._camera())
        assert len(out) == 0

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(123)
        cam = self._camera()
        mask = _disc(120.0, (320, 240))
        pts = np.column_stack([rng.uniform(-400, 400, 3000),
                               rng.uniform(-300, 300, 3000),
                               rng.uniform(200, 1500, 3000)])
        cloud = PointCloud(pts)
        out = extract_masked_points(cloud, mask, cam)
        np.testing.assert_array_equal(out.points,
                                      pts[_lookup(pts, mask, cam)])
        uv = cam.project(pts)
        expected = np.array([_point_in_polygon_scalar(u, v, mask.contour)
                             for u, v in uv])
        np.testing.assert_array_equal(out.points, pts[expected])

    def test_behind_camera_points_never_kept(self):
        cam = self._camera()
        mask = _full_image()
        pts = np.array([[0.0, 0.0, 500.0], [0.0, 0.0, -500.0]])
        out = extract_masked_points(PointCloud(pts), mask, cam)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 500.0]])

    def test_overflowing_projection_is_not_kept(self):
        # fx * x and fy * y overflow to inf, which lies outside every
        # window; pytest turns any RuntimeWarning into an error.
        cam = self._camera()
        pts = np.array([[1e306, 0.0, 1.0], [0.0, -1e306, 1.0],
                        [0.0, 0.0, 500.0]])
        out = extract_masked_points(PointCloud(pts), _full_image(), cam)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 500.0]])

    def test_mask_outside_image_rejected(self):
        cam = self._camera()
        mask = rect_mask(600, 400, 700, 470)
        with pytest.raises(InvalidInputError):
            extract_masked_points(self._cloud_grid(), mask, cam)

    def test_shared_cells_match_per_mask_extraction(self):
        rng = np.random.default_rng(5)
        cam = self._camera()
        pts = np.column_stack([rng.uniform(-400, 400, 3000),
                               rng.uniform(-300, 300, 3000),
                               rng.uniform(-200, 1500, 3000)])
        cloud = PointCloud(pts)
        inside = [_disc(60.0, (250, 200), "T1"),
                  _disc(45.0, (290, 230), "T2"),
                  _square("T3", lo=400, hi=450)]
        off = rect_mask(600, 10, 700, 470, teat_id="T4")
        cells = project_cells(cloud, cam, inside + [off])
        # The off-image mask does not widen the window.
        np.testing.assert_array_equal(
            cells.lo, np.min([m.bbox[0] for m in inside], axis=0))
        np.testing.assert_array_equal(
            cells.hi, np.max([m.bbox[1] for m in inside], axis=0))
        for mask in inside:
            np.testing.assert_array_equal(
                extract_masked_points(cloud, mask, cam, cells=cells).points,
                extract_masked_points(cloud, mask, cam).points)
        with pytest.raises(InvalidInputError, match="outside the image"):
            extract_masked_points(cloud, off, cam, cells=cells)

    def test_cells_must_cover_the_mask_of_this_cloud(self):
        cam = self._camera()
        cloud = self._cloud_grid()
        cells = project_cells(cloud, cam, [_square(lo=100, hi=200)])
        with pytest.raises(InvalidInputError, match="cells do not cover"):
            extract_masked_points(cloud, _square(lo=150, hi=250), cam,
                                  cells=cells)
        with pytest.raises(InvalidInputError, match="cells do not cover"):
            extract_masked_points(self._cloud_grid(), _square(), cam,
                                  cells=cells)
        with pytest.raises(InvalidInputError, match="cells do not cover"):
            extract_masked_points(cloud, _square(), self._camera(),
                                  cells=cells)

    def test_no_mask_gives_no_cells(self):
        cloud = PointCloud([[0.0, 0.0, 500.0]])
        cells = project_cells(cloud, self._camera(), [])
        assert len(cells.index) == len(cells.col) == len(cells.row) == 0


def _ring() -> np.ndarray:
    """A 12 x 14 block with a 4 x 5 hole: one component, two loops."""
    region = np.ones((12, 14), dtype=bool)
    region[4:8, 5:10] = False
    return region


class TestPixelSetMasks:
    """Pixel sets that `render` never emits, checked point by point
    against `_lookup` on grid lines, one ulp off them, pixel centres and
    random points."""

    CAMERA = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0)

    def _cloud(self, mask: TeatMask) -> np.ndarray:
        lo, hi = mask.bbox
        uv = _grid_queries(lo, hi)
        rng = np.random.default_rng(3)
        uv = np.vstack([uv, rng.uniform(lo - 2, hi + 2, (2000, 2))])
        return np.array([backproject(self.CAMERA, q, d) for q, d
                         in zip(uv, rng.uniform(300.0, 900.0, len(uv)))])

    def _check(self, mask: TeatMask) -> None:
        pts = self._cloud(mask)
        want = _lookup(pts, mask, self.CAMERA)
        assert 0 < want.sum() < len(pts)
        cloud = PointCloud(pts)
        got = extract_masked_points(cloud, mask, self.CAMERA)
        np.testing.assert_array_equal(got.points, pts[want])
        cells = project_cells(cloud, self.CAMERA, [mask, _square("T9")])
        np.testing.assert_array_equal(
            extract_masked_points(cloud, mask, self.CAMERA,
                                  cells=cells).points, pts[want])

    def test_hole(self):
        mask = TeatMask("T1", 0, _ring(), (300, 200))
        assert mask.region.sum() == 12 * 14 - 4 * 5
        self._check(mask)

    def test_two_components(self):
        region = np.zeros((9, 20), dtype=bool)
        region[:, :6] = True
        region[3:, 12:] = True
        self._check(TeatMask("T1", 0, region, (250, 310)))

    def test_one_pixel(self):
        mask = TeatMask("T1", 0, np.ones((1, 1), dtype=bool), (320, 240))
        assert mask.contour.tolist() == [[320, 240], [320, 241], [321, 241],
                                         [321, 240]]
        self._check(mask)

    def test_full_image_segmentation(self):
        full = np.zeros((480, 640), dtype=bool)
        full[100:112, 50:64] = _ring()
        full[130, 70] = True
        mask = TeatMask("T1", 0, full)
        assert mask.origin == (50, 100) and mask.region.shape == (31, 21)
        self._check(mask)

    def test_partly_off_the_image(self):
        # Extraction refuses a mask with pixels off the image; the part
        # inside is what rasterize_mask draws.
        mask = TeatMask("T1", 0, _ring(), (-5, 25))
        pts = self._cloud(mask)
        with pytest.raises(InvalidInputError, match="outside the image"):
            extract_masked_points(PointCloud(pts), mask, self.CAMERA)
        identity = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=20,
                               height=30)
        want = _lookup(_image_grid(20, 30).points, mask, identity)
        assert want.sum() == 5 * 9 - 5
        np.testing.assert_array_equal(rasterize_mask(mask, 20, 30),
                                      want.reshape(30, 20))


class TestRasterize:
    def test_rasterize_square_counts_pixel_centers(self):
        mask = _square(lo=10, hi=20)
        img = rasterize_mask(mask, 640, 480)
        # Centers 10.5..19.5 in both axes: a 10x10 block.
        assert img.sum() == 100
        assert img[15, 15] and not img[15, 25]

    def test_rasterize_clips_a_huge_contour_to_the_image(self):
        mask = rect_mask(-100, -100, 164, 148)
        assert rasterize_mask(mask, 64, 48).all()

    @pytest.mark.parametrize("size", [(-1, 480), (640, 480.0), (True, 480)],
                             ids=["negative_width", "float_height",
                                  "bool_width"])
    def test_bad_image_size_rejected(self, size):
        with pytest.raises(InvalidInputError, match="width|height"):
            rasterize_mask(_square(lo=10, hi=20), *size)

    def test_rasterize_matches_membership(self):
        mask = _disc(30.0, (60, 50))
        img = rasterize_mask(mask, 120, 100)
        vv, uu = np.nonzero(img)
        for u, v in zip(uu[:50], vv[:50]):
            assert _point_in_polygon_scalar(u + 0.5, v + 0.5, mask.contour)


class TestParityLookup:
    """A cleaned region's cell lookup gives exactly the answers of
    points_in_polygon against its traced contour, boundaries included."""

    # Identity projection: a point (u, v, 1) projects to exactly (u, v).
    CAMERA = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=40, height=40)

    def _lattice_masks(self):
        rng = np.random.default_rng(11)
        masks = []
        for _ in range(60):
            # Random blobs with holes and pinches, some on the image border
            # (contour vertices at 0 or 40), cleaned.
            h, w = rng.integers(2, 41, 2)
            r, c = rng.integers(0, 41 - h), rng.integers(0, 41 - w)
            blob = np.zeros((40, 40), dtype=bool)
            blob[r:r + h, c:c + w] = rng.random((h, w)) < rng.uniform(0.4, 0.9)
            region = clean_region(blob)
            if region.any():
                masks.append(TeatMask(f"T{len(masks)}", 0, region))
        for _ in range(20):
            # Rectangles with long edges, down to one pixel wide.
            (u0, u1), (v0, v1) = (np.sort(rng.choice(41, 2, replace=False))
                                  for _ in range(2))
            masks.append(rect_mask(int(u0), int(v0), int(u1), int(v1),
                                   teat_id=f"T{len(masks)}"))
        return masks

    @staticmethod
    def _queries(mask):
        lo, hi = mask.bbox
        return _grid_queries(lo, hi)

    def test_shared_cells_match_polygon_test(self):
        # Every mask read from one projection of all their queries.
        masks = self._lattice_masks()
        uv = np.concatenate([self._queries(m) for m in masks])
        cloud = PointCloud(np.column_stack([uv, np.ones(len(uv))]))
        cells = project_cells(cloud, self.CAMERA, masks)
        for mask in masks:
            got = extract_masked_points(cloud, mask, self.CAMERA, cells=cells)
            np.testing.assert_array_equal(
                got.points, cloud.points[points_in_polygon(uv, mask.contour)])

    def test_matches_polygon_test_on_lattice_polygons(self):
        for mask in self._lattice_masks():
            uv = self._queries(mask)
            cloud = PointCloud(np.column_stack([uv, np.ones(len(uv))]))
            got = extract_masked_points(cloud, mask, self.CAMERA)
            np.testing.assert_array_equal(
                got.points, cloud.points[points_in_polygon(uv, mask.contour)])
            # The image clips the raster: a smaller image, and the region
            # moved to negative coordinates.
            for size, shift in ((40, 0), (17, -10)):
                moved = TeatMask("T1", 0, mask.region,
                                 tuple(o + shift for o in mask.origin))
                uu, vv = np.meshgrid(np.arange(size) + 0.5,
                                     np.arange(size) + 0.5)
                centres = np.column_stack([uu.ravel(), vv.ravel()])
                np.testing.assert_array_equal(
                    rasterize_mask(moved, size, size),
                    points_in_polygon(centres, moved.contour)
                    .reshape(size, size))
