"""Voxel-grid downsampling tests.

The reference implementation is a plain dict-of-lists voxel map built with
the same floor(p / leaf) assignment; the production path must match its
centroids exactly (same arithmetic, different bookkeeping).
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import oracle_downsample
from teatpose.cloud import PointCloud
from teatpose.errors import InvalidInputError
from teatpose.voxel import voxel_downsample


class TestVoxelDownsample:
    def test_rejects_nonpositive_leaf(self):
        for leaf in (0.0, -5.0, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                voxel_downsample(PointCloud([[1.0, 2.0, 3.0]]), leaf)

    def test_rejects_indices_beyond_int64(self):
        # Cast unchecked, both indices would become INT64_MIN and the two
        # points would merge into one phantom centroid at the origin.
        far = PointCloud([[1e19, 0.0, 0.0], [-1e19, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="1.0 mm"):
            voxel_downsample(far, 1.0)

    def test_indices_floor_rule(self):
        # Each point sits alone in its voxel, so the output is the input in
        # voxel-index order: (-1,-1,2) < (0,0,1) < (0,1,1).
        pts = np.array([[0.0, 9.999, 10.0], [-0.1, -10.0, 25.0],
                        [0.0, 10.0, 10.0]])
        out = voxel_downsample(PointCloud(pts), 10.0)
        np.testing.assert_array_equal(out.points, pts[[1, 0, 2]])

    def test_boundary_point_goes_to_higher_voxel(self):
        # 5.0 opens voxel 1 and 4.999 stays in voxel 0, so nothing merges;
        # 5.0 and 9.999 share voxel 1.
        split = voxel_downsample(PointCloud([[4.999, 0.0, 0.0],
                                             [5.0, 0.0, 0.0]]), 5.0)
        assert len(split) == 2
        joined = voxel_downsample(PointCloud([[5.0, 0.0, 0.0],
                                              [9.999, 0.0, 0.0]]), 5.0)
        assert len(joined) == 1

    def test_single_point_passthrough(self):
        c = PointCloud([[3.0, 4.0, 5.0]])
        out = voxel_downsample(c, 10.0)
        np.testing.assert_allclose(out.points, [[3.0, 4.0, 5.0]])

    def test_two_points_same_voxel_give_centroid(self):
        c = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        out = voxel_downsample(c, 10.0)
        np.testing.assert_allclose(out.points, [[0.5, 0.5, 0.5]])

    def test_empty_cloud_stays_empty(self):
        empty = PointCloud(np.empty((0, 3)))
        assert len(voxel_downsample(empty, 5.0)) == 0

    def test_matches_hash_map_oracle_exactly(self):
        # 1e5 uniform points in a 1 m cube, 50 mm leaf.
        rng = np.random.default_rng(2024)
        pts = rng.uniform(0.0, 1000.0, size=(100_000, 3))
        out = voxel_downsample(PointCloud(pts), 50.0)
        expected = oracle_downsample(pts, 50.0)
        assert len(out) == len(expected)
        np.testing.assert_array_equal(out.points, expected)

    @pytest.mark.parametrize("kind", ["boundaries", "negative", "duplicates",
                                      "far-offset"])
    def test_matches_hash_map_oracle_on_edge_clouds(self, kind):
        rng = np.random.default_rng(31)
        leaf = 0.5 if kind == "far-offset" else 5.0
        if kind == "boundaries":
            # Exact multiples of the leaf, and their neighbours one ulp below.
            cells = rng.integers(-6, 6, (400, 3)) * leaf
            pts = np.vstack([cells, np.nextafter(cells, -np.inf)])
        elif kind == "negative":
            pts = rng.uniform(-100.0, -0.001, (3000, 3))
        elif kind == "duplicates":
            pts = np.repeat(rng.uniform(-30.0, 30.0, (200, 3)), 7, axis=0)
            pts = pts[rng.permutation(len(pts))]
        else:
            # Corners of a 2e9 mm cube: 4e9 cells per axis, so a 1-D key
            # raveled from the three indices would overflow int64.
            corners = rng.choice([-1e9, 1e9], (2000, 3))
            pts = corners + np.round(rng.normal(0.0, 1.0, (2000, 3)), 1)
        out = voxel_downsample(PointCloud(pts), leaf)
        np.testing.assert_array_equal(out.points, oracle_downsample(pts, leaf))

    def test_member_order_preserving_permutation_is_bitwise_equal(self):
        # Shuffle the voxels but keep each voxel's points in input order:
        # every centroid sums the same values in the same order.
        rng = np.random.default_rng(32)
        pts = rng.normal(0.0, 20.0, (5000, 3))
        cell = np.unique(np.floor(pts / 5.0), axis=0, return_inverse=True)[1]
        rank = rng.permutation(cell.max() + 1)[cell.ravel()]
        shuffled = pts[np.argsort(rank, kind="stable")]
        assert not np.array_equal(shuffled, pts)
        np.testing.assert_array_equal(
            voxel_downsample(PointCloud(shuffled), 5.0).points,
            voxel_downsample(PointCloud(pts), 5.0).points)

    def test_output_not_larger_than_input(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0.0, 30.0, size=(500, 3))
        out = voxel_downsample(PointCloud(pts), 5.0)
        assert 0 < len(out) <= 500

    def test_every_output_near_some_input(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-100, 100, size=(400, 3))
        leaf = 8.0
        out = voxel_downsample(PointCloud(pts), leaf)
        half_diag = leaf * np.sqrt(3.0) / 2.0
        for q in out.points:
            assert np.min(np.linalg.norm(pts - q, axis=1)) <= half_diag

    def test_idempotent_on_downsampled_cloud(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 200.0, size=(1000, 3))
        once = voxel_downsample(PointCloud(pts), 10.0)
        twice = voxel_downsample(once, 10.0)
        np.testing.assert_array_equal(twice.points, once.points)

    def test_order_independent(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0.0, 100.0, size=(300, 3))
        a = voxel_downsample(PointCloud(pts), 7.0)
        b = voxel_downsample(PointCloud(pts[::-1]), 7.0)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)
