"""Euclidean clustering tests against an O(n^2) union-find oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

import teatpose.cluster as tp_cluster
from _oracles import as_sets, oracle_components
from teatpose.axes import estimate_normals
from teatpose.cloud import PointCloud
from teatpose.cluster import euclidean_cluster
from teatpose.errors import InvalidInputError


class TestExamples:
    def test_two_close_points_form_one_cluster(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        clusters = euclidean_cluster(cloud, tolerance_mm=5.0)
        assert len(clusters) == 1
        assert len(clusters[0]) == 2

    def test_two_blobs_split(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 2.0, size=(30, 3))
        b = rng.normal(0.0, 2.0, size=(40, 3)) + [100.0, 0.0, 0.0]
        cloud = PointCloud(np.vstack([a, b]))
        clusters = euclidean_cluster(cloud, tolerance_mm=10.0)
        assert [len(c) for c in clusters] == [40, 30]

    def test_chain_connects_through_links(self):
        # 0-4-8-...-36: consecutive gaps of 4 < tolerance 5 link everything.
        pts = np.column_stack([np.arange(0.0, 40.0, 4.0),
                               np.zeros(10), np.zeros(10)])
        clusters = euclidean_cluster(PointCloud(pts), tolerance_mm=5.0)
        assert len(clusters) == 1 and len(clusters[0]) == 10

    def test_empty_cloud(self):
        assert euclidean_cluster(PointCloud(np.empty((0, 3)))) == []


def _random_scene_cases() -> list[tuple[np.ndarray, float]]:
    """(points, tolerance) pairs of the random-scene oracle test."""
    rng = np.random.default_rng(500)
    uniform = rng.uniform(0.0, 120.0, size=(500, 3))
    # Lattice spacing exactly equal to the tolerance (2.5 is exact in
    # binary), with repeated sites: every lattice edge is a tie.
    lattice = rng.integers(-4, 4, size=(300, 3)).astype(float) * 2.5
    blobs = rng.normal(0.0, 4.0, size=(150, 3)) + rng.choice([0.0, 60.0],
                                                            size=(150, 1))
    duplicated = np.vstack([blobs, blobs[rng.integers(0, 150, 60)]])
    duplicated = duplicated[rng.permutation(len(duplicated))]
    return [(uniform, 4.0), (uniform, 8.0), (uniform, 15.0),
            (lattice, 2.5), (duplicated, 3.0)]


class TestOracle:
    def test_matches_union_find_on_random_scene(self):
        for pts, tol in _random_scene_cases():
            got = as_sets(euclidean_cluster(PointCloud(pts), tolerance_mm=tol),
                           pts)
            expected = oracle_components(pts, tol)
            assert got == expected

    def test_matches_oracle_on_clustered_scene(self):
        rng = np.random.default_rng(501)
        centers = rng.uniform(0.0, 300.0, size=(8, 3))
        pts = np.vstack([c + rng.normal(0.0, 3.0, size=(40, 3))
                         for c in centers])
        got = as_sets(euclidean_cluster(PointCloud(pts), tolerance_mm=10.0),
                       pts)
        expected = oracle_components(pts, 10.0)
        assert got == expected


class TestProperties:
    def test_partition_of_input(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 100.0, size=(300, 3))
        clusters = euclidean_cluster(PointCloud(pts), tolerance_mm=6.0)
        # Every input row lands in exactly one cluster.
        got = np.vstack([c.points for c in clusters])
        assert sorted(map(tuple, got)) == sorted(map(tuple, pts))

    def test_sorted_by_size_then_centroid(self):
        pts = np.array([[10.0, 0.0, 0.0], [11.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        clusters = euclidean_cluster(PointCloud(pts), tolerance_mm=2.0)
        # Equal sizes: lexicographically smaller centroid first.
        np.testing.assert_allclose(clusters[0].points.mean(axis=0),
                                   [0.5, 0.0, 0.0])
        np.testing.assert_allclose(clusters[1].points.mean(axis=0),
                                   [10.5, 0.0, 0.0])

    def test_points_keep_input_order_within_cluster(self):
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        clusters = euclidean_cluster(PointCloud(pts), tolerance_mm=3.0)
        np.testing.assert_array_equal(clusters[0].points, pts)

    def test_invalid_parameters(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                euclidean_cluster(cloud, tolerance_mm=tol)


class TestOverflow:
    @pytest.mark.parametrize("x", [1e150, 1e155])
    def test_overflowing_extent_rejected(self, x):
        # Past ~1.3e154 mm the k-d tree's squared distances overflow.
        rng = np.random.default_rng(3)
        cloud = PointCloud(np.vstack([rng.uniform(-1.0, 1.0, (40, 3)),
                                      [x, 0.0, 0.0]]))
        if x < 1e154:
            assert [len(c) for c in euclidean_cluster(cloud)] == [40, 1]
        else:
            with pytest.raises(InvalidInputError, match="extent"):
                euclidean_cluster(cloud)


def _knn_rows(pts: np.ndarray, k: int = 12) -> np.ndarray:
    return cKDTree(pts).query(pts, k=k)[1]


def _normals_rows(pts: np.ndarray) -> np.ndarray:
    return estimate_normals(PointCloud(pts), k=12)[1]


class TestNeighbours:
    """Clustering with given neighbour rows against the radius path."""

    @staticmethod
    def _clouds():
        """The oracle's cases, plus connected clouds for the shortcut."""
        cases = _random_scene_cases()
        (uniform, _), _, _, (lattice, _), (duplicated, _) = cases
        one_blob = np.random.default_rng(501).normal(0.0, 4.0, size=(400, 3))
        return cases + [(uniform, 40.0), (lattice, 3.0), (duplicated, 100.0),
                        (one_blob, 10.0)]

    @pytest.mark.parametrize("rows", [_knn_rows, _normals_rows])
    def test_matches_radius_path_bit_for_bit(self, rows, monkeypatch):
        searches = []

        def tree(points):
            searches.append(len(points))
            return cKDTree(points)

        monkeypatch.setattr(tp_cluster, "cKDTree", tree)
        shortcuts = 0
        for pts, tol in self._clouds():
            cloud = PointCloud(pts)
            expected = euclidean_cluster(cloud, tolerance_mm=tol)
            before = len(searches)
            got = euclidean_cluster(cloud, tolerance_mm=tol,
                                    neighbours=rows(pts))
            shortcuts += len(searches) == before
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g.points.tobytes() == e.points.tobytes()
                assert g.points.flags.c_contiguous
        # Both paths ran: the lattice edges lie exactly at 2.5 mm, so no
        # k-NN edge is kept there, while the single blob connects.
        assert 0 < shortcuts < len(self._clouds())

    def test_knn_rows_across_a_gap_do_not_join(self):
        # Two blobs of 6 points and k = 8: every k-NN row reaches across
        # the 50 mm gap. Those edges are longer than the tolerance, so they
        # must be left out of the graph, not stored with weight zero.
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, size=(6, 3))
        pts = np.vstack([a, a[::-1] + [50.0, 0.0, 0.0]])
        nbr = _knn_rows(pts, k=8)
        assert np.all((nbr[:6] >= 6).any(axis=1))
        assert np.all((nbr[6:] < 6).any(axis=1))
        got = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0,
                                neighbours=nbr)
        assert [len(c) for c in got] == [6, 6]
        expected = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0)
        assert [c.points.tobytes() for c in got] == \
            [c.points.tobytes() for c in expected]

    @pytest.mark.parametrize("neighbours", [
        np.zeros((5, 3), dtype=int),            # wrong row count
        np.zeros(6, dtype=int),                 # 1-D
        np.zeros((6, 3)),                       # float rows
        np.zeros((6, 3), dtype=bool),           # boolean rows
        np.full((6, 3), -1),                    # negative row
        np.full((6, 3), 6),                     # past the cloud
    ])
    def test_bad_neighbours_rejected(self, neighbours):
        cloud = PointCloud(np.arange(18.0).reshape(6, 3))
        with pytest.raises(InvalidInputError, match="neighbours"):
            euclidean_cluster(cloud, neighbours=neighbours)
