"""PointCloud container tests."""

from __future__ import annotations

import numpy as np
import pytest

from teatpose.cloud import PointCloud
from teatpose.errors import InvalidInputError


class TestPointCloud:
    def test_wraps_points_as_float64(self):
        c = PointCloud([[1, 2, 3], [4, 5, 6]])
        assert c.points.dtype == np.float64
        assert len(c) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            PointCloud([[0.0, 0.0, np.nan]])

    def test_points_are_immutable(self):
        c = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            c.points[0, 0] = 9.0

    def test_select_preserves_order_and_colors(self):
        pts = np.arange(12.0).reshape(4, 3)
        sub = PointCloud(pts).select([2, 0])
        np.testing.assert_allclose(sub.points, pts[[2, 0]])

    def test_empty_cloud(self):
        c = PointCloud(np.empty((0, 3)))
        assert len(c) == 0
