"""Axis estimator tests: PCA, k-NN surface normals, and the normal-bundle axis.

Oracles:
  * power iteration on the covariance matrix for pca_axis;
  * a Fibonacci-sphere grid search of the normals objective for normals_axis;
  * the analytic cylinder sampler, whose true axis is known exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from teatpose.axes import (AXIS_RATIO_MIN, SurfaceNormalField,
                           estimate_normals, normals_axis, pca_axis)
from teatpose.cloud import PointCloud
from teatpose.errors import (AmbiguousAxisError, InsufficientPointsError,
                             InvalidInputError)


def _cylinder_points(n: int, radius: float, length: float, axis,
                     rng, noise_mm: float = 0.0) -> np.ndarray:
    """Uniform sample of a cylinder wall with the given axis through origin."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(ref, axis)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    t = rng.uniform(-length / 2.0, length / 2.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = (t[:, None] * axis + radius * np.cos(theta)[:, None] * u
           + radius * np.sin(theta)[:, None] * v)
    if noise_mm > 0:
        pts = pts + rng.normal(0.0, noise_mm, pts.shape)
    return pts


def _cylinder_rings(radius: float, length: float, axis,
                    step_mm: float = 1.5, azimuths: int = 48) -> np.ndarray:
    """Deterministic axisymmetric wall sample: PCA on it is exact.

    Random surface sampling alone adds ~1 degree of Monte-Carlo eigenvector
    noise at practical sizes, so tight accuracy bounds are checked on this
    symmetric sampling and random clouds get looser statistical bounds.
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(ref, axis)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    theta = np.linspace(0.0, 2.0 * np.pi, azimuths, endpoint=False)
    ring = radius * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)
    stations = np.arange(-length / 2.0, length / 2.0 + 1e-9, step_mm)
    return np.concatenate([s * axis + ring for s in stations], axis=0)


def _power_iteration_axis(points: np.ndarray, iters: int = 2000) -> np.ndarray:
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / len(points)
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    for _ in range(iters):
        v = cov @ v
        v /= np.linalg.norm(v)
    return v


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    c = abs(float(np.dot(a, b)))
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


class TestPcaAxis:
    def test_collinear_points(self):
        pts = np.column_stack([np.zeros(50), np.zeros(50),
                               np.linspace(0.0, 100.0, 50)])
        axis = pca_axis(PointCloud(pts))
        np.testing.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)

    def test_analytic_cylinder(self):
        pts = _cylinder_rings(radius=15.0, length=60.0, axis=(0.0, 1.0, 0.0))
        axis = pca_axis(PointCloud(pts))
        assert _angle_deg(axis, np.array([0.0, 1.0, 0.0])) < 0.1

    def test_random_cylinder_sampling(self):
        rng = np.random.default_rng(21)
        pts = _cylinder_points(4000, radius=15.0, length=60.0,
                               axis=(0.0, 1.0, 0.0), rng=rng)
        axis = pca_axis(PointCloud(pts))
        assert _angle_deg(axis, np.array([0.0, 1.0, 0.0])) < 2.0

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pts = rng.normal(0.0, 1.0, size=(200, 3)) * [5.0, 2.0, 0.7]
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(rot) < 0:
                rot[:, 0] *= -1
            pts = pts @ rot.T
            got = pca_axis(PointCloud(pts))
            expected = _power_iteration_axis(pts)
            assert min(np.linalg.norm(got - expected),
                       np.linalg.norm(got + expected)) < 1e-6

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            pca_axis(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_isotropic_rejected(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(0.0, 10.0, size=(5000, 3))
        with pytest.raises(AmbiguousAxisError):
            pca_axis(PointCloud(pts))

    def test_coincident_points_rejected(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (10, 1))
        with pytest.raises(AmbiguousAxisError):
            pca_axis(PointCloud(pts))

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        pts = _cylinder_points(500, 10.0, 50.0, (0.3, 0.1, 1.0), rng)
        a1 = pca_axis(PointCloud(pts))
        center = pts.mean(axis=0)
        a2 = pca_axis(PointCloud(center + 7.5 * (pts - center)))
        assert min(np.linalg.norm(a1 - a2), np.linalg.norm(a1 + a2)) < 1e-9

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(25)
        pts = _cylinder_points(2000, 12.0, 55.0, (0.0, 0.0, 1.0), rng)
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(rot) < 0:
            rot[:, 0] *= -1
        a_plain = pca_axis(PointCloud(pts))
        a_rot = pca_axis(PointCloud(pts @ rot.T))
        assert _angle_deg(rot @ a_plain, a_rot) < 0.2


class TestEstimateNormals:
    def test_planar_patch_faces_camera(self):
        rng = np.random.default_rng(31)
        xy = rng.uniform(-50.0, 50.0, size=(300, 2))
        pts = np.column_stack([xy, np.zeros(300)])
        field = estimate_normals(PointCloud(pts), k=12,
                                 camera_origin=(0.0, 0.0, -500.0))
        np.testing.assert_allclose(field.normals,
                                   np.tile([0.0, 0.0, -1.0], (300, 1)),
                                   atol=1e-9)

    def test_cylinder_normals_orthogonal_to_axis(self):
        # 64 azimuths: k-NN distance ties at the patch rim stay mild.
        axis = np.array([0.0, 0.0, 1.0])
        pts = _cylinder_rings(14.0, 50.0, axis, azimuths=64)
        field = estimate_normals(PointCloud(pts), k=12,
                                 camera_origin=(0.0, -500.0, 0.0))
        dots = np.abs(field.normals @ axis)
        # Orthogonal to the true axis within 3 degrees -> |dot| < sin(3 deg).
        assert np.degrees(np.arcsin(dots.max())) < 3.0

    def test_random_cylinder_normals_mostly_orthogonal(self):
        # Random sampling leaves occasional skinny k-NN patches, so the
        # guarantee is statistical rather than per-normal.
        rng = np.random.default_rng(32)
        axis = np.array([0.0, 0.0, 1.0])
        pts = _cylinder_points(2000, 14.0, 50.0, axis, rng)
        field = estimate_normals(PointCloud(pts), k=12,
                                 camera_origin=(0.0, -500.0, 0.0))
        tilt = np.degrees(np.arcsin(np.abs(field.normals @ axis)))
        assert np.percentile(tilt, 95) < 3.0

    def test_flipping_camera_flips_normals(self):
        rng = np.random.default_rng(33)
        xy = rng.uniform(-30.0, 30.0, size=(100, 2))
        pts = np.column_stack([xy, np.zeros(100)])
        near = estimate_normals(PointCloud(pts), k=8,
                                camera_origin=(0.0, 0.0, -100.0))
        far = estimate_normals(PointCloud(pts), k=8,
                               camera_origin=(0.0, 0.0, 100.0))
        np.testing.assert_allclose(near.normals, -far.normals, atol=1e-12)

    def test_k_larger_than_cloud_rejected(self):
        pts = np.eye(3) * 10.0
        with pytest.raises(InvalidInputError):
            estimate_normals(PointCloud(pts), k=4)

    def test_unit_length_invariant(self):
        rng = np.random.default_rng(34)
        pts = _cylinder_points(500, 10.0, 40.0, (0.2, 0.9, 0.4), rng,
                               noise_mm=0.5)
        field = estimate_normals(PointCloud(pts), k=10)
        np.testing.assert_allclose(np.linalg.norm(field.normals, axis=1),
                                   1.0, atol=1e-9)

    def test_fractional_k_rejected(self):
        pts = _cylinder_rings(10.0, 40.0, (0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="k must be"):
            estimate_normals(PointCloud(pts), k=12.5)

    def test_non_finite_camera_origin_rejected(self):
        pts = _cylinder_rings(10.0, 40.0, (0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="camera_origin"):
            estimate_normals(PointCloud(pts), camera_origin=(np.nan, 0.0, 0.0))

    def test_neighbours_are_the_k_nearest_rows(self):
        rng = np.random.default_rng(35)
        pts = _cylinder_points(300, 10.0, 40.0, (0.0, 0.0, 1.0), rng)
        field = estimate_normals(PointCloud(pts), k=12)
        assert field.neighbours.shape == (300, 12)
        np.testing.assert_array_equal(field.neighbours[:, 0], np.arange(300))
        dist = np.linalg.norm(pts[field.neighbours] - pts[:, None], axis=2)
        all_dist = np.sort(np.linalg.norm(pts[:, None] - pts[None], axis=2))
        np.testing.assert_allclose(dist, all_dist[:, :12])
        assert field.neighbours_unique.all()

    def test_distance_ties_mark_neighbours_not_unique(self):
        # Integer points: squared distances are exact, so ties are exact.
        rng = np.random.default_rng(36)
        pts = np.unique(rng.integers(0, 50, (400, 3)), axis=0).astype(float)
        field = estimate_normals(PointCloud(pts), k=12)
        sq = np.sort(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        expected = (np.diff(sq[:, :13], axis=1) > 0).all(axis=1)
        np.testing.assert_array_equal(field.neighbours_unique, expected)
        assert 0 < expected.sum() < len(pts)
        # Tied rows keep what a k query picks, as before the tie check.
        np.testing.assert_array_equal(field.neighbours,
                                      cKDTree(pts).query(pts, k=12)[1])

    @pytest.mark.parametrize("neighbours, unique", [
        ([[0, 1], [1, 2]], [True, True]), ([[0], [1.0]], [True, True]),
        ([[0], [-1]], [True, True]), ([0, 1], [True, True]),
        ([[0], [1]], [1, 1]), ([[0], [1]], [True]), ([[0], [1]], None),
    ])
    def test_bad_neighbours_rejected(self, neighbours, unique):
        with pytest.raises(InvalidInputError, match="neighbours"):
            SurfaceNormalField(normals=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                               neighbours=neighbours,
                               neighbours_unique=unique)


def _teat_like(n: int, rng) -> np.ndarray:
    """Noisy cylinder wall along +z with its low end at z = 0."""
    pts = _cylinder_points(n, 12.0, 50.0, (0.0, 0.0, 1.0), rng, noise_mm=0.3)
    return pts - [0.0, 0.0, pts[:, 2].min()]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _axis_outcome(field):
    """normals_axis bits, or its error (a tiny wall may give parallel ones)."""
    try:
        return _bits(normals_axis(field))
    except AmbiguousAxisError as exc:
        return str(exc)


class TestSubsetReuse:
    """estimate_normals(subset_of=...) against a fresh search of the subset.

    Past a few hundred rows numpy's `normals.T @ normals` goes to BLAS for a
    contiguous array and to its own loop for a strided one, with other
    result bits, so the subsets here span both sides of that switch.
    """

    @staticmethod
    def _both(pts, rows, k=12):
        cloud = PointCloud(pts)
        field = estimate_normals(cloud, k=k, camera_origin=(0.0, -500.0, 0.0))
        wall = cloud.select(rows)
        fresh = estimate_normals(wall, k=k, camera_origin=(0.0, -500.0, 0.0))
        reused = estimate_normals(wall, k=k, camera_origin=(0.0, -500.0, 0.0),
                                  subset_of=(field, rows))
        inside = np.zeros(len(pts), bool)
        inside[rows] = True
        copied = int(inside[field.neighbours[rows]].all(axis=1).sum())
        return fresh, reused, copied

    def _assert_identical(self, fresh, reused):
        assert _bits(reused.normals) == _bits(fresh.normals)
        np.testing.assert_array_equal(reused.neighbours, fresh.neighbours)
        # Same layout as the fresh field: column 0 of an (n, 3, 3) buffer.
        assert reused.normals.strides == fresh.normals.strides == (72, 24)
        assert _axis_outcome(reused) == _axis_outcome(fresh)

    def test_mixed_wall_above_blas_switch(self):
        rng = np.random.default_rng(61)
        pts = _teat_like(3000, rng)
        rows = np.nonzero(pts[:, 2] >= 15.0)[0]
        fresh, reused, copied = self._both(pts, rows)
        assert len(rows) >= 400 and 0 < copied < len(rows)
        self._assert_identical(fresh, reused)

    def test_whole_cloud_copies_every_normal(self):
        rng = np.random.default_rng(62)
        pts = _teat_like(800, rng)
        rows = np.arange(len(pts))
        fresh, reused, copied = self._both(pts, rows)
        assert copied == len(rows) >= 400
        self._assert_identical(fresh, reused)

    def test_tied_neighbours_are_searched_again(self):
        # Exact rings tie k-d tree distances; no tied row may be copied.
        pts = _cylinder_rings(14.0, 60.0, (0.0, 0.0, 1.0), step_mm=1.0)
        rows = np.nonzero(pts[:, 2] >= -20.0)[0]
        fresh, reused, copied = self._both(pts, rows)
        assert copied > 400
        self._assert_identical(fresh, reused)

    def test_interleaved_subset_copies_nothing(self):
        rng = np.random.default_rng(63)
        pts = _teat_like(2000, rng)
        rows = np.arange(0, len(pts), 2)
        fresh, reused, copied = self._both(pts, rows)
        assert copied == 0 and len(rows) >= 400
        self._assert_identical(fresh, reused)

    @pytest.mark.parametrize("n_rows", [12, 13, 16])
    def test_wall_near_refine_minimum(self, n_rows):
        # A thin rod: the top end's neighbours stay in the top rows.
        rng = np.random.default_rng(64)
        pts = _cylinder_points(60, 2.0, 120.0, (0.0, 0.0, 1.0), rng,
                               noise_mm=0.3)
        rows = np.sort(np.argsort(-pts[:, 2])[:n_rows])
        fresh, reused, copied = self._both(pts, rows)
        assert 0 < copied < n_rows
        self._assert_identical(fresh, reused)

    @pytest.mark.parametrize("rows", [
        np.arange(5, 20),              # wrong length
        np.arange(5, 25)[::-1],        # not increasing
        np.r_[5, 5, np.arange(7, 25)],  # repeated
        np.arange(90, 110),            # beyond the earlier cloud
        np.arange(-1, 19),             # negative
        np.arange(5, 25) * 1.0,        # not integers
        np.arange(5, 25)[None, :],     # not 1-D
        np.r_[6, 5, np.arange(7, 25)].astype(np.uint64),  # unsigned, unsorted
    ])
    def test_bad_rows_rejected(self, rows):
        pts = _teat_like(100, np.random.default_rng(65))
        field = estimate_normals(PointCloud(pts), k=12)
        with pytest.raises(InvalidInputError, match="rows"):
            estimate_normals(PointCloud(pts[5:25]), k=12,
                             subset_of=(field, rows))

    @pytest.mark.parametrize("field", [
        SurfaceNormalField(np.tile([0.0, 0.0, 1.0], (100, 1))),
        "k=10",
    ])
    def test_field_without_matching_neighbours_rejected(self, field):
        pts = _teat_like(100, np.random.default_rng(66))
        if field == "k=10":
            field = estimate_normals(PointCloud(pts), k=10)
        with pytest.raises(InvalidInputError, match="k=12"):
            estimate_normals(PointCloud(pts[5:25]), k=12,
                             subset_of=(field, np.arange(5, 25)))


class TestNormalsAxis:
    def test_two_orthogonal_normals(self):
        field = SurfaceNormalField(normals=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        axis = normals_axis(field)
        np.testing.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)

    def test_cylinder_normals_recover_axis(self):
        rng = np.random.default_rng(41)
        axis_true = np.array([0.3, -0.2, 0.93])
        axis_true /= np.linalg.norm(axis_true)
        pts = _cylinder_points(1500, 13.0, 55.0, axis_true, rng)
        field = estimate_normals(PointCloud(pts), k=12)
        axis = normals_axis(field)
        assert _angle_deg(axis, axis_true) < 1.0

    def test_matches_fibonacci_grid_search(self):
        rng = np.random.default_rng(42)
        normals = rng.normal(size=(40, 3))
        normals[:, 2] *= 0.2  # flatten so a clear minimizer exists
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        field = SurfaceNormalField(normals=normals)
        axis = normals_axis(field)
        dirs = _fibonacci_directions(100_000)
        cost = np.einsum("di,ni->dn", dirs, normals) ** 2
        best = dirs[int(np.argmin(cost.sum(axis=1)))]
        assert _angle_deg(axis, best) < 1.0

    def test_parallel_normals_rejected(self):
        field = SurfaceNormalField(normals=np.tile([0.0, 0.0, 1.0], (5, 1)))
        with pytest.raises(AmbiguousAxisError):
            normals_axis(field)

    def test_single_normal_rejected(self):
        field = SurfaceNormalField(normals=[[1.0, 0.0, 0.0]])
        with pytest.raises(InsufficientPointsError):
            normals_axis(field)

    def test_non_unit_normals_rejected(self):
        with pytest.raises(InvalidInputError):
            SurfaceNormalField(normals=[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestCrossMethod:
    def test_methods_agree_on_noisy_cylinders(self):
        # Aspect >= 1.5 and <= 2 mm noise: both estimators see the same axis.
        rng = np.random.default_rng(55)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            radius = rng.uniform(10.0, 16.0)
            length = rng.uniform(3.2 * radius, 5.0 * radius)
            pts = _cylinder_points(3000, radius, length, axis, rng,
                                   noise_mm=rng.uniform(0.0, 2.0))
            cloud = PointCloud(pts)
            a_pca = pca_axis(cloud)
            a_nrm = normals_axis(estimate_normals(cloud, k=32))
            assert _angle_deg(a_pca, a_nrm) < 5.0
            assert _angle_deg(a_pca, axis) < 5.0

    def test_ratio_threshold_matches_constant(self):
        assert AXIS_RATIO_MIN == 1.05
