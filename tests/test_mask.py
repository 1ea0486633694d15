"""Mask contour, membership, and frustum-extraction tests.

The canonical membership semantics is the even-odd rule with the half-open
crossing test. Two references evaluate it: the scalar oracle below, point
by point, and the vectorized `_oracles.points_in_polygon`, which the scalar
oracle checks. The parity raster of `teatpose.mask` must agree with both on
every single point, including points exactly on vertex rows and grid
lines. Masks take only lattice contours (unit steps along u or v, as
`trace_boundary` draws them); the references take any polygon.
"""

from __future__ import annotations

import numpy as np
import pytest

from _lattice import unit_steps
from _oracles import backproject, points_in_polygon
from teatpose.camera import CameraModel
from teatpose.cloud import PointCloud
from teatpose.contour import clean_region, trace_boundary
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


def _traced_disc(radius: float, center) -> np.ndarray:
    """Lattice contour of the pixels whose centre lies within radius of
    center, in image coordinates."""
    cu, cv = center
    u0 = int(np.floor(cu - radius)) - 1
    v0 = int(np.floor(cv - radius)) - 1
    n = int(np.ceil(2 * radius)) + 3
    vv, uu = np.mgrid[v0:v0 + n, u0:u0 + n] + 0.5
    disc = (uu - cu) ** 2 + (vv - cv) ** 2 <= radius ** 2
    return trace_boundary(disc) + (u0, v0)


def _square_corners(lo=100, hi=200) -> np.ndarray:
    return np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])


def _square(teat_id="T1", stamp=0, lo=100, hi=200) -> TeatMask:
    return TeatMask(teat_id=teat_id, stamp_us=stamp,
                    contour=unit_steps(_square_corners(lo, hi)))


def _full_image() -> TeatMask:
    return TeatMask("T1", 0, unit_steps([[0, 0], [640, 0], [640, 480],
                                         [0, 480]]))


def _circle_contour(n: int, radius: float, center=(320, 240)) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.rint(np.column_stack([center[0] + radius * np.cos(theta),
                                   center[1] + radius * np.sin(theta)]))
    return pts.astype(int)


class TestTeatMask:
    def test_requires_three_vertices(self):
        with pytest.raises(InvalidInputError):
            TeatMask("T1", 0, np.array([[0, 0], [1, 1]]))

    def test_rejects_fractional_vertices(self):
        with pytest.raises(InvalidInputError):
            TeatMask("T1", 0, np.array([[0.5, 0.0], [10, 0], [10, 10]]))

    def test_rejects_self_intersection(self):
        bowtie = np.array([[0, 0], [10, 10], [10, 0], [0, 10]])
        with pytest.raises(InvalidInputError):
            TeatMask("T1", 0, bowtie)

    def test_accepts_concave_simple_polygon(self):
        lshape = unit_steps([[0, 0], [20, 0], [20, 10], [10, 10],
                             [10, 20], [0, 20]])
        mask = TeatMask("T1", 0, lshape)
        assert len(mask) == 80

    @pytest.mark.parametrize("contour", [
        np.array([[2**63 - 1, 0], [-2**63, 0], [-2**63, 1], [2**63 - 1, 1]]),
        np.array([[1e19, 0.0], [-1e19, 0.0], [-1e19, 1.0], [1e19, 1.0]]),
        np.array([[2**53 - 1, 0], [2**53, 0], [2**53, 1], [2**53 - 1, 1]]),
    ], ids=["int64_extremes", "float_1e19", "float64_integer_limit"])
    def test_rejects_vertices_beyond_exact_float_integers(self, contour):
        # Rejected before the int64 cast, which would warn past 2**63.
        with pytest.raises(InvalidInputError, match="2\\*\\*53"):
            TeatMask("T1", 0, contour)

    def test_accepts_vertices_just_inside_the_limit(self):
        lo = 2**53 - 2
        mask = TeatMask("T1", 0, np.array([[lo, 0], [lo + 1, 0], [lo + 1, 1],
                                           [lo, 1]]))
        assert mask.contour.max() == 2**53 - 1

    def test_bounds_check_closed_rectangle(self):
        mask = _full_image()
        assert mask.bounds_ok(640, 480)
        assert not mask.bounds_ok(639, 480)

    @pytest.mark.parametrize("contour, rule", [
        ([[0, 0], [1, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1]],
         "one pixel"),
        ([[0, 0], [2, 0], [2, 1], [1, 1], [0, 1]], "one pixel"),
        ([[0, 0], [0, 0], [1, 0], [1, 1], [0, 1]], "one pixel"),
        # Two unit squares that touch at the vertex (1, 1).
        ([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [1, 1], [0, 1]],
         "revisits a vertex"),
    ], ids=["diagonal_edge", "two_pixel_edge", "repeated_vertex",
            "figure_eight"])
    def test_rejects_non_lattice_contour(self, contour, rule):
        with pytest.raises(InvalidInputError, match=rule):
            TeatMask("T1", 0, np.array(contour))

    def test_revisit_verdict_matches_row_unique(self):
        # Closed unit-step walks (shuffled balanced steps) mostly revisit a
        # vertex; traced cleaned blobs, discs and rectangles never do.
        rng = np.random.default_rng(23)
        steps = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        contours = [_traced_disc(r, (r + 3.3, 2 * r + 0.7))
                    for r in (2.0, 5.5, 11.2)]
        contours += [unit_steps(_square_corners(lo, lo + w))
                     for lo, w in ((0, 1), (-7, 3), (2**53 - 9, 8))]
        for _ in range(40):
            blob = clean_region(np.pad(rng.random((12, 16)) < 0.6, 1))
            if blob.any():
                contours.append(trace_boundary(blob) - 5)
        for _ in range(300):
            k, m = rng.integers(0, 6, size=2)
            walk = np.repeat(steps, [k, k, m, m], axis=0)
            if len(walk) < 3:
                continue
            offset = rng.choice([0, -40, 2**52, -2**53 + 30])
            contours.append(offset + np.cumsum(rng.permutation(walk), axis=0))
        verdicts = []
        for c in contours:
            simple = len(np.unique(c, axis=0)) == len(c)
            if simple:
                TeatMask("T1", 0, c)
            else:
                with pytest.raises(InvalidInputError, match="revisits"):
                    TeatMask("T1", 0, c)
            verdicts.append(simple)
        assert 20 < sum(verdicts) < len(verdicts) - 100


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
        mask = TeatMask("T1", 0, unit_steps([[0, 0], [2, 0], [2, 2], [0, 2]]))
        cloud = self._cloud_grid()
        out = extract_masked_points(cloud, mask, self._camera())
        assert len(out) == 0

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(123)
        cam = self._camera()
        poly = _traced_disc(120.0, (320, 240))
        mask = TeatMask("T1", 0, poly)
        pts = np.column_stack([rng.uniform(-400, 400, 3000),
                               rng.uniform(-300, 300, 3000),
                               rng.uniform(200, 1500, 3000)])
        cloud = PointCloud(pts)
        out = extract_masked_points(cloud, mask, cam)
        uv = cam.project(pts)
        expected = np.array([_point_in_polygon_scalar(u, v, poly)
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
        mask = TeatMask("T1", 0, unit_steps([[600, 400], [700, 400],
                                             [700, 470], [600, 470]]))
        with pytest.raises(InvalidInputError):
            extract_masked_points(self._cloud_grid(), mask, cam)

    def test_shared_cells_match_per_mask_extraction(self):
        rng = np.random.default_rng(5)
        cam = self._camera()
        pts = np.column_stack([rng.uniform(-400, 400, 3000),
                               rng.uniform(-300, 300, 3000),
                               rng.uniform(-200, 1500, 3000)])
        cloud = PointCloud(pts)
        inside = [TeatMask("T1", 0, _traced_disc(60.0, (250, 200))),
                  TeatMask("T2", 0, _traced_disc(45.0, (290, 230))),
                  _square("T3", lo=400, hi=450)]
        off = TeatMask("T4", 0, unit_steps([[600, 10], [700, 10],
                                            [700, 470], [600, 470]]))
        cells = project_cells(cloud, cam, inside + [off])
        # The off-image mask does not widen the window.
        corners = np.concatenate([m.contour for m in inside])
        np.testing.assert_array_equal(cells.lo, corners.min(axis=0))
        np.testing.assert_array_equal(cells.hi, corners.max(axis=0))
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


class TestRasterize:
    def test_rasterize_square_counts_pixel_centers(self):
        mask = _square(lo=10, hi=20)
        img = rasterize_mask(mask, 640, 480)
        # Centers 10.5..19.5 in both axes: a 10x10 block.
        assert img.sum() == 100
        assert img[15, 15] and not img[15, 25]

    def test_rasterize_clips_a_huge_contour_to_the_image(self):
        mask = TeatMask("T1", 0, unit_steps([[-100, -100], [164, -100],
                                             [164, 148], [-100, 148]]))
        assert rasterize_mask(mask, 64, 48).all()

    @pytest.mark.parametrize("size", [(-1, 480), (640, 480.0), (True, 480)],
                             ids=["negative_width", "float_height",
                                  "bool_width"])
    def test_bad_image_size_rejected(self, size):
        with pytest.raises(InvalidInputError, match="width|height"):
            rasterize_mask(_square(lo=10, hi=20), *size)

    def test_rasterize_matches_membership(self):
        poly = _traced_disc(30.0, (60, 50))
        mask = TeatMask("T1", 0, poly)
        img = rasterize_mask(mask, 120, 100)
        vv, uu = np.nonzero(img)
        for u, v in zip(uu[:50], vv[:50]):
            assert _point_in_polygon_scalar(u + 0.5, v + 0.5, poly)


class TestParityLookup:
    """Lattice contours are decided by a per-cell parity lookup; it must
    give exactly the answers of points_in_polygon, boundaries included."""

    # Identity projection: a point (u, v, 1) projects to exactly (u, v).
    CAMERA = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=40, height=40)

    def _lattice_polygons(self):
        rng = np.random.default_rng(11)
        polys = []
        for _ in range(60):
            # Random blobs with holes and pinches, some on the image border
            # (contour vertices at 0 or 40), cleaned and traced.
            h, w = rng.integers(2, 41, 2)
            r, c = rng.integers(0, 41 - h), rng.integers(0, 41 - w)
            blob = np.zeros((40, 40), dtype=bool)
            blob[r:r + h, c:c + w] = rng.random((h, w)) < rng.uniform(0.4, 0.9)
            region = clean_region(blob)
            if region.any():
                polys.append(trace_boundary(region))
        for _ in range(20):
            # Rectangles with long edges, down to one pixel wide.
            (u0, u1), (v0, v1) = (np.sort(rng.choice(41, 2, replace=False))
                                  for _ in range(2))
            polys.append(unit_steps([[u0, v0], [u1, v0], [u1, v1], [u0, v1]]))
        return polys

    @staticmethod
    def _queries(poly):
        lo = poly.min(axis=0) - 1.0
        hi = poly.max(axis=0) + 1.0
        # Grid lines (u == hi_u and v == hi_v among them), one ulp either
        # side of them, and pixel centres, in every combination.
        axes = []
        for a in range(2):
            g = np.arange(lo[a], hi[a] + 1.0)
            axes.append(np.concatenate([g, np.nextafter(g, -np.inf),
                                        np.nextafter(g, np.inf), g + 0.5]))
        uu, vv = np.meshgrid(*axes)
        return np.column_stack([uu.ravel(), vv.ravel()])

    def test_shared_cells_match_polygon_test(self):
        # Every polygon read from one projection of all their queries.
        polys = self._lattice_polygons()
        masks = [TeatMask(f"T{i}", 0, p) for i, p in enumerate(polys)]
        uv = np.concatenate([self._queries(p) for p in polys])
        cloud = PointCloud(np.column_stack([uv, np.ones(len(uv))]))
        cells = project_cells(cloud, self.CAMERA, masks)
        for mask in masks:
            got = extract_masked_points(cloud, mask, self.CAMERA, cells=cells)
            np.testing.assert_array_equal(
                got.points, cloud.points[points_in_polygon(uv, mask.contour)])

    def test_matches_polygon_test_on_lattice_polygons(self):
        for poly in self._lattice_polygons():
            mask = TeatMask("T1", 0, poly)
            uv = self._queries(poly)
            cloud = PointCloud(np.column_stack([uv, np.ones(len(uv))]))
            got = extract_masked_points(cloud, mask, self.CAMERA)
            np.testing.assert_array_equal(
                got.points, cloud.points[points_in_polygon(uv, poly)])
            # The image clips the raster: a smaller image, and the contour
            # moved to negative coordinates.
            for size, shift in ((40, 0), (17, -10)):
                uu, vv = np.meshgrid(np.arange(size) + 0.5,
                                     np.arange(size) + 0.5)
                centres = np.column_stack([uu.ravel(), vv.ravel()])
                np.testing.assert_array_equal(
                    rasterize_mask(TeatMask("T1", 0, poly + shift), size, size),
                    points_in_polygon(centres, poly + shift).reshape(size, size))
