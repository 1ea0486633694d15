"""Euclidean clustering tests against an O(n^2) union-find oracle."""

from __future__ import annotations

import numpy as np
import pytest

from teatpose.cloud import PointCloud
from teatpose.cluster import euclidean_cluster
from teatpose.errors import InvalidInputError


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _oracle_components(points: np.ndarray, tol: float) -> list[frozenset]:
    """Brute force over the full distance matrix."""
    n = len(points)
    uf = _UnionFind(n)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= tol:
                uf.union(i, j)
    groups: dict[int, set] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def _as_sets(clusters, points: np.ndarray) -> set[frozenset]:
    """Map cluster point rows back to input indices.

    Equal rows are at distance 0, so they always share a cluster: each row
    stands for every input index that holds it.
    """
    index: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        index.setdefault(tuple(p), []).append(i)
    return {frozenset(i for q in c.points for i in index[tuple(q)])
            for c in clusters}


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


class TestOracle:
    def test_matches_union_find_on_random_scene(self):
        rng = np.random.default_rng(500)
        uniform = rng.uniform(0.0, 120.0, size=(500, 3))
        # Lattice spacing exactly equal to the tolerance (2.5 is exact in
        # binary), with repeated sites: every lattice edge is a tie.
        lattice = rng.integers(-4, 4, size=(300, 3)).astype(float) * 2.5
        blobs = rng.normal(0.0, 4.0, size=(150, 3)) + rng.choice([0.0, 60.0],
                                                                size=(150, 1))
        duplicated = np.vstack([blobs, blobs[rng.integers(0, 150, 60)]])
        duplicated = duplicated[rng.permutation(len(duplicated))]
        cases = [(uniform, 4.0), (uniform, 8.0), (uniform, 15.0),
                 (lattice, 2.5), (duplicated, 3.0)]
        for pts, tol in cases:
            got = _as_sets(euclidean_cluster(PointCloud(pts), tolerance_mm=tol),
                           pts)
            expected = set(_oracle_components(pts, tol))
            assert got == expected

    def test_matches_oracle_on_clustered_scene(self):
        rng = np.random.default_rng(501)
        centers = rng.uniform(0.0, 300.0, size=(8, 3))
        pts = np.vstack([c + rng.normal(0.0, 3.0, size=(40, 3))
                         for c in centers])
        got = _as_sets(euclidean_cluster(PointCloud(pts), tolerance_mm=10.0),
                       pts)
        expected = set(_oracle_components(pts, 10.0))
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
