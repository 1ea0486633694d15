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

from _oracles import axis_angle_deg
from teatpose.axes import (AXIS_RATIO_MIN, _hood_normals, estimate_normals,
                           normals_axis, pca_axis)
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


class TestPcaAxis:
    def test_collinear_points(self):
        pts = np.column_stack([np.zeros(50), np.zeros(50),
                               np.linspace(0.0, 100.0, 50)])
        axis = pca_axis(PointCloud(pts))
        np.testing.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)

    def test_analytic_cylinder(self):
        pts = _cylinder_rings(radius=15.0, length=60.0, axis=(0.0, 1.0, 0.0))
        axis = pca_axis(PointCloud(pts))
        assert axis_angle_deg(axis, np.array([0.0, 1.0, 0.0])) < 0.1

    def test_random_cylinder_sampling(self):
        rng = np.random.default_rng(21)
        pts = _cylinder_points(4000, radius=15.0, length=60.0,
                               axis=(0.0, 1.0, 0.0), rng=rng)
        axis = pca_axis(PointCloud(pts))
        assert axis_angle_deg(axis, np.array([0.0, 1.0, 0.0])) < 2.0

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
        assert axis_angle_deg(rot @ a_plain, a_rot) < 0.2


class TestEstimateNormals:
    def test_planar_patch_faces_camera(self):
        rng = np.random.default_rng(31)
        xy = rng.uniform(-50.0, 50.0, size=(300, 2))
        pts = np.column_stack([xy, np.zeros(300)])
        normals = estimate_normals(PointCloud(pts), k=12)[0]
        # Unsigned normals: only |n| is fixed by the plane.
        np.testing.assert_allclose(np.abs(normals),
                                   np.tile([0.0, 0.0, 1.0], (300, 1)),
                                   atol=1e-9)

    def test_cylinder_normals_orthogonal_to_axis(self):
        # 64 azimuths: k-NN distance ties at the patch rim stay mild.
        axis = np.array([0.0, 0.0, 1.0])
        pts = _cylinder_rings(14.0, 50.0, axis, azimuths=64)
        normals = estimate_normals(PointCloud(pts), k=12)[0]
        dots = np.abs(normals @ axis)
        # Orthogonal to the true axis within 3 degrees -> |dot| < sin(3 deg).
        assert np.degrees(np.arcsin(dots.max())) < 3.0

    def test_random_cylinder_normals_mostly_orthogonal(self):
        # Random sampling leaves occasional skinny k-NN patches, so the
        # guarantee is statistical rather than per-normal.
        rng = np.random.default_rng(32)
        axis = np.array([0.0, 0.0, 1.0])
        pts = _cylinder_points(2000, 14.0, 50.0, axis, rng)
        normals = estimate_normals(PointCloud(pts), k=12)[0]
        tilt = np.degrees(np.arcsin(np.abs(normals @ axis)))
        assert np.percentile(tilt, 95) < 3.0

    def test_k_larger_than_cloud_rejected(self):
        pts = np.eye(3) * 10.0
        with pytest.raises(InvalidInputError):
            estimate_normals(PointCloud(pts), k=4)

    def test_unit_length_invariant(self):
        rng = np.random.default_rng(34)
        pts = _cylinder_points(500, 10.0, 40.0, (0.2, 0.9, 0.4), rng,
                               noise_mm=0.5)
        normals = estimate_normals(PointCloud(pts), k=10)[0]
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1),
                                   1.0, atol=1e-9)

    def test_fractional_k_rejected(self):
        pts = _cylinder_rings(10.0, 40.0, (0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="k must be"):
            estimate_normals(PointCloud(pts), k=12.5)

    @pytest.mark.parametrize("k", [12.0, np.float64(12), True])
    def test_integral_float_or_bool_k_rejected(self, k):
        # A count is an integer, as everywhere else; a float of integer
        # value is not one.
        pts = _cylinder_rings(10.0, 40.0, (0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="k must be"):
            estimate_normals(PointCloud(pts), k=k)

    def test_numpy_integer_k_accepted(self):
        pts = _cylinder_rings(10.0, 40.0, (0.0, 0.0, 1.0))
        nbr = estimate_normals(PointCloud(pts), k=np.int64(12))[1]
        assert nbr.shape == (len(pts), 12)

    @pytest.mark.parametrize("x", [1e150, 1e155])
    def test_overflowing_extent_rejected(self, x):
        # Past ~1.3e154 mm a squared distance overflows, and the k-d tree
        # answers with missing neighbours (index n) instead of rows.
        rng = np.random.default_rng(3)
        cloud = PointCloud(np.vstack([rng.uniform(-1.0, 1.0, (40, 3)),
                                      [x, 0.0, 0.0]]))
        if x < 1e154:
            assert len(estimate_normals(cloud)[0]) == 41
        else:
            with pytest.raises(InvalidInputError, match="extent"):
                estimate_normals(cloud)

    @pytest.mark.parametrize("x", [1.2e154, 1e307])
    def test_overflowing_neighbourhood_rejected(self, x):
        # The extent check passes, but the covariance overflows: two groups
        # 1.2e154 mm apart, or one group at 1e307 mm, where the rounding
        # of its mean leaves ~1e291 mm offsets whose squares overflow.
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (12, 3)) + [x, 0.0, 0.0]
        if x < 1e300:
            pts[:6, 0] -= x
        with pytest.raises(InvalidInputError, match="covariance overflows"):
            estimate_normals(PointCloud(pts), k=12)

    def test_neighbours_are_the_k_nearest_rows(self):
        rng = np.random.default_rng(35)
        pts = _cylinder_points(300, 10.0, 40.0, (0.0, 0.0, 1.0), rng)
        nbr = estimate_normals(PointCloud(pts), k=12)[1]
        assert nbr.shape == (300, 12)
        np.testing.assert_array_equal(nbr[:, 0], np.arange(300))
        dist = np.linalg.norm(pts[nbr] - pts[:, None], axis=2)
        all_dist = np.sort(np.linalg.norm(pts[:, None] - pts[None], axis=2))
        np.testing.assert_allclose(dist, all_dist[:, :12])

    def test_distance_ties_mark_neighbours_not_unique(self):
        # Integer points: squared distances are exact, so ties are exact.
        rng = np.random.default_rng(36)
        pts = np.unique(rng.integers(0, 50, (400, 3)), axis=0).astype(float)
        sq = np.sort(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        unique = (np.diff(sq[:, :13], axis=1) > 0).all(axis=1)
        assert 0 < unique.sum() < len(pts)
        # Where a tie leaves the k nearest not unique, estimate_normals
        # returns the rows a k query picks.
        nbr = estimate_normals(PointCloud(pts), k=12)[1]
        np.testing.assert_array_equal(nbr, cKDTree(pts).query(pts, k=12)[1])


def _eigh(hoods: np.ndarray):
    """Reference: LAPACK eigenvalues and eigenvectors of hood covariances."""
    centered = hoods - hoods.mean(axis=1, keepdims=True)
    return np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))


def _kernel(hoods: np.ndarray) -> np.ndarray:
    """_hood_normals on (m, k, 3) hoods stored row after row."""
    m, k, _ = hoods.shape
    return _hood_normals(hoods.reshape(-1, 3), np.arange(m * k).reshape(m, k))


def _random_hoods(rng, m: int, scale: float, k: int = 12) -> np.ndarray:
    """Rotated, offset Gaussian hoods with spreads from 1e-4 to 1 per axis."""
    spread = np.exp(rng.uniform(np.log(1e-4), 0.0, (m, 1, 3)))
    rot = np.linalg.qr(rng.normal(size=(m, 3, 3)))[0]
    hoods = (rng.normal(size=(m, k, 3)) * spread) @ rot
    return scale * (hoods + rng.uniform(-50.0, 50.0, (m, 1, 3)))


@pytest.fixture
def eigh_rows(monkeypatch):
    """Rows that go through np.linalg.eigh during the test, per call."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestHoodNormalsKernel:
    """The closed-form smallest eigenvector against LAPACK's eigh."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e150])
    def test_matches_eigh_on_well_conditioned_hoods(self, scale):
        hoods = _random_hoods(np.random.default_rng(71), 4000, scale)
        got = _kernel(hoods)
        evals, evecs = _eigh(hoods)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0,
                                   rtol=0, atol=1e-15)
        well = (evals[:, 1] - evals[:, 0]) >= 1e-2 * evals.sum(axis=1)
        assert well.mean() > 0.5
        cross = np.linalg.norm(np.cross(got[well], evecs[well, :, 0]), axis=1)
        assert cross.max() <= 1e-9

    def test_planar_hood_is_exact(self, eigh_rows):
        rng = np.random.default_rng(72)
        hoods = np.concatenate([rng.uniform(-5.0, 5.0, (50, 12, 2)),
                                np.full((50, 12, 1), 7.0)], axis=2)
        got = _kernel(hoods)
        np.testing.assert_array_equal(got[:, :2], 0.0)
        np.testing.assert_array_equal(np.abs(got[:, 2]), 1.0)
        assert eigh_rows == []

    @pytest.mark.parametrize("shape", ["collinear", "coincident",
                                       "isotropic", "round_rod"])
    def test_degenerate_hoods_fall_back_to_eigh(self, shape, eigh_rows):
        rng = np.random.default_rng(73)
        t = rng.uniform(-5.0, 5.0, (20, 12, 1))
        if shape == "collinear":
            hoods = t * [0.6, 0.0, 0.8] + [1.0, 2.0, 3.0]
        elif shape == "coincident":
            hoods = np.tile([1.0, 2.0, 3.0], (20, 12, 1))
        elif shape == "isotropic":       # exactly A = I / 3: no spread in A
            hoods = np.tile(np.vstack([np.eye(3), -np.eye(3)]), (20, 2, 1))
        else:                            # lambda0 ~ lambda1: a round rod
            theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
            ring = np.stack([np.zeros(12), np.cos(theta), np.sin(theta)], 1)
            hoods = (np.concatenate([t, np.zeros((20, 12, 2))], axis=2)
                     + 1e-2 * ring + rng.normal(0.0, 1e-9, (20, 12, 3)))
        got = _kernel(hoods)
        assert eigh_rows == [20]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0,
                                   rtol=0, atol=1e-15)
        if shape == "collinear":
            np.testing.assert_allclose(got @ [0.6, 0.0, 0.8], 0.0, atol=1e-9)
        if shape == "round_rod":
            # Any direction across the rod will do; not along it.
            along = _eigh(hoods)[1][:, :, 2]
            np.testing.assert_allclose(np.einsum("ni,ni->n", got, along),
                                       0.0, atol=1e-12)

    def test_row_bits_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(74)
        hoods = _random_hoods(rng, 60, 1.0)
        hoods[::7] = hoods[::7, :1]        # coincident rows: the eigh path
        pts = hoods.reshape(-1, 3)
        nbr = np.arange(len(pts)).reshape(60, 12)
        whole = _hood_normals(pts, nbr)
        for row in range(60):
            alone = _hood_normals(pts, nbr[row:row + 1])
            assert alone.tobytes() == whole[row].tobytes()
        for _ in range(20):
            rows = np.sort(rng.choice(60, rng.integers(1, 60), replace=False))
            assert _hood_normals(pts, nbr[rows]).tobytes() == \
                whole[rows].tobytes()


def _teat_like(n: int, rng) -> np.ndarray:
    """Noisy cylinder wall along +z with its low end at z = 0."""
    pts = _cylinder_points(n, 12.0, 50.0, (0.0, 0.0, 1.0), rng, noise_mm=0.3)
    return pts - [0.0, 0.0, pts[:, 2].min()]


class TestSubsetReuse:
    """A subset's normals read from the cloud's normals (`normals[rows]`)
    against the subset searched again by estimate_normals.

    A wall point whose k nearest neighbours in the cloud all lie in the wall,
    with no distance tie, has the same neighbours in the same order in the
    wall, so its read normal is copied bit for bit from what a search of the
    wall gives. The other wall points keep cloud points outside the wall in
    their neighbourhoods; their normals differ a little, and so does the
    axis. The read normals are a contiguous (n, 3) array like fresh ones,
    so past a few hundred rows `normals_axis` takes the same BLAS branch
    for both.
    """

    @staticmethod
    def _both(pts, rows, k=12):
        cloud = PointCloud(pts)
        normals, nbr = estimate_normals(cloud, k=k)
        fresh = estimate_normals(cloud.select(rows), k=k)[0]
        read = normals[rows]
        assert read.strides == fresh.strides == (24, 8)
        inside = np.zeros(len(pts), bool)
        inside[rows] = True
        copied = inside[nbr[rows]].all(axis=1)
        return fresh, read, copied

    @staticmethod
    def _assert_copied(fresh, read, copied):
        assert read[copied].tobytes() == fresh[copied].tobytes()

    def test_mixed_wall_above_blas_switch(self):
        rng = np.random.default_rng(61)
        pts = _teat_like(3000, rng)
        rows = np.nonzero(pts[:, 2] >= 15.0)[0]
        fresh, read, copied = self._both(pts, rows)
        assert len(rows) >= 400 and 0 < copied.sum() < len(rows)
        self._assert_copied(fresh, read, copied)
        assert axis_angle_deg(normals_axis(read), normals_axis(fresh)) < 0.5

    def test_whole_cloud_copies_every_normal(self):
        rng = np.random.default_rng(62)
        pts = _teat_like(800, rng)
        rows = np.arange(len(pts))
        fresh, read, copied = self._both(pts, rows)
        assert copied.all() and len(rows) >= 400
        assert read.tobytes() == fresh.tobytes()
        assert normals_axis(read).tobytes() == normals_axis(fresh).tobytes()

    def test_tied_neighbours_are_searched_again(self):
        # Exact rings tie k-d tree distances, so the wall searched again may
        # pick other tied neighbours than the cloud's search; the read
        # normals still give the same axis.
        pts = _cylinder_rings(14.0, 60.0, (0.0, 0.0, 1.0), step_mm=1.0)
        rows = np.nonzero(pts[:, 2] >= -20.0)[0]
        fresh, read, copied = self._both(pts, rows)
        assert copied.sum() > 400
        assert axis_angle_deg(normals_axis(read), [0.0, 0.0, 1.0]) < 0.05
        assert axis_angle_deg(normals_axis(read), normals_axis(fresh)) < 0.1

    def test_interleaved_subset_copies_nothing(self):
        # Every other point: no wall point keeps its whole neighbourhood, so
        # no read normal is a fresh one, yet the axes agree.
        rng = np.random.default_rng(63)
        pts = _teat_like(2000, rng)
        rows = np.arange(0, len(pts), 2)
        fresh, read, copied = self._both(pts, rows)
        assert not copied.any() and len(rows) >= 400
        assert not (read == fresh).all(axis=1).any()
        assert axis_angle_deg(normals_axis(read), normals_axis(fresh)) < 1.5

    @pytest.mark.parametrize("n_rows", [12, 13, 16])
    def test_wall_near_refine_minimum(self, n_rows):
        # A thin rod: the top end's neighbours stay in the top rows.
        rng = np.random.default_rng(64)
        pts = _cylinder_points(60, 2.0, 120.0, (0.0, 0.0, 1.0), rng,
                               noise_mm=0.3)
        rows = np.sort(np.argsort(-pts[:, 2])[:n_rows])
        fresh, read, copied = self._both(pts, rows)
        assert 0 < copied.sum() < n_rows
        self._assert_copied(fresh, read, copied)
        axis = normals_axis(read)
        np.testing.assert_allclose(np.linalg.norm(axis), 1.0, rtol=0,
                                   atol=1e-12)


class TestNormalsAxis:
    def test_two_orthogonal_normals(self):
        axis = normals_axis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-12)

    def test_cylinder_normals_recover_axis(self):
        rng = np.random.default_rng(41)
        axis_true = np.array([0.3, -0.2, 0.93])
        axis_true /= np.linalg.norm(axis_true)
        pts = _cylinder_points(1500, 13.0, 55.0, axis_true, rng)
        axis = normals_axis(estimate_normals(PointCloud(pts), k=12)[0])
        assert axis_angle_deg(axis, axis_true) < 1.0

    def test_matches_fibonacci_grid_search(self):
        rng = np.random.default_rng(42)
        normals = rng.normal(size=(40, 3))
        normals[:, 2] *= 0.2  # flatten so a clear minimizer exists
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        axis = normals_axis(normals)
        dirs = _fibonacci_directions(100_000)
        cost = np.einsum("di,ni->dn", dirs, normals) ** 2
        best = dirs[int(np.argmin(cost.sum(axis=1)))]
        assert axis_angle_deg(axis, best) < 1.0

    def test_negated_rows_give_the_same_axis_bits(self):
        # normals_axis reads only n n^T, so a normal's sign is never used.
        rng = np.random.default_rng(43)
        pts = _cylinder_points(800, 12.0, 50.0, (0.3, -0.2, 0.93), rng,
                               noise_mm=0.3)
        normals = estimate_normals(PointCloud(pts), k=12)[0]
        axis = normals_axis(normals)
        for _ in range(5):
            flip = np.where(rng.random(len(normals)) < 0.5, -1.0, 1.0)
            negated = normals * flip[:, None]
            assert normals_axis(negated).tobytes() == axis.tobytes()

    def test_parallel_normals_rejected(self):
        with pytest.raises(AmbiguousAxisError):
            normals_axis(np.tile([0.0, 0.0, 1.0], (5, 1)))

    def test_single_normal_rejected(self):
        with pytest.raises(InsufficientPointsError):
            normals_axis([[1.0, 0.0, 0.0]])

    def test_non_unit_normals_rejected(self):
        with pytest.raises(InvalidInputError):
            normals_axis([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # The unit-length check comes before the count check.
        with pytest.raises(InvalidInputError, match="unit length"):
            normals_axis([[2.0, 0.0, 0.0]])

    @pytest.mark.parametrize("length", [1.0 + 1e-6, 1.0 - 1e-6, np.nan])
    def test_unit_length_bound_is_absolute_1e_9(self, length):
        # np.allclose's default rtol=1e-5 used to let 1 + 1e-6 through.
        with pytest.raises(InvalidInputError, match="unit length"):
            normals_axis([[length, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_unit_length_within_1e_9_accepted(self):
        axis = normals_axis([[1.0 + 5e-10, 0.0, 0.0],
                             [0.0, 1.0 - 5e-10, 0.0]])
        np.testing.assert_allclose(np.abs(axis), [0.0, 0.0, 1.0], atol=1e-9)


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
            a_nrm = normals_axis(estimate_normals(cloud, k=32)[0])
            assert axis_angle_deg(a_pca, a_nrm) < 5.0
            assert axis_angle_deg(a_pca, axis) < 5.0

    def test_ratio_threshold_matches_constant(self):
        assert AXIS_RATIO_MIN == 1.05
