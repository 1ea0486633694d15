"""Axis seed tests: the principal axis of a cloud (pca_axis).

Oracles:
  * power iteration on the covariance matrix;
  * the analytic cylinder samplers, whose true axis is known exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import axis_angle_deg
from teatpose.axes import AXIS_RATIO_MIN, pca_axis
from teatpose.cloud import PointCloud
from teatpose.errors import AmbiguousAxisError, InsufficientPointsError


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

    def test_noisy_cylinders_within_5_degrees(self):
        # Aspect >= 1.5 and <= 2 mm noise: the principal axis is the true one.
        rng = np.random.default_rng(55)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            radius = rng.uniform(10.0, 16.0)
            length = rng.uniform(3.2 * radius, 5.0 * radius)
            pts = _cylinder_points(3000, radius, length, axis, rng,
                                   noise_mm=rng.uniform(0.0, 2.0))
            assert axis_angle_deg(pca_axis(PointCloud(pts)), axis) < 5.0

    def test_ratio_threshold_matches_constant(self):
        assert AXIS_RATIO_MIN == 1.05
