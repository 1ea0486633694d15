"""Euclidean clustering tests against an O(n^2) union-find oracle."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import teatpose.cluster as tp_cluster
from _oracles import as_sets, oracle_components
from teatpose.cloud import PointCloud
from teatpose.cluster import euclidean_cluster
from teatpose.errors import InvalidInputError
from teatpose.voxel import voxel_downsample


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


def _counted(monkeypatch, name: str) -> list:
    """Record each call of tp_cluster.<name>, which still runs."""
    calls = []
    fn = getattr(tp_cluster, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(tp_cluster, name, spy)
    return calls


@st.composite
def _near_tolerance_clouds(draw):
    """(points, tolerance): a chain of steps tolerance * (1 +- 1e-12) long
    from a blob of random points, raw or voxelized, around its start.

    A step that long spans 1.7 cubes of the lattice, so it always crosses a
    cube face; along a cube diagonal it ends in an adjacent cube, whose
    edge the lattice proposes. In the tightest blobs every point is within
    tolerance of the chain's start, so the steps alone decide whether the
    cloud is one cluster.
    """
    tol = draw(st.sampled_from([0.5, 2.5, 3.7, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    start = rng.uniform(-6.0 * tol, 6.0 * tol, 3)
    half_width = draw(st.sampled_from([0.25, 1.0, 4.0])) * tol
    blob = start + rng.uniform(-half_width, half_width,
                               (draw(st.integers(0, 40)), 3))
    if draw(st.booleans()):
        blob = voxel_downsample(PointCloud(blob), tol / 4.0).points
    chain = [start]
    for _ in range(draw(st.integers(1, 4))):
        step = {"random": rng.normal(size=3),
                "axis": np.eye(3)[rng.integers(3)],
                "diagonal": rng.choice([-1.0, 1.0], 3)}[
            draw(st.sampled_from(["random", "axis", "diagonal"]))]
        step *= tol * draw(st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12])) \
            / np.linalg.norm(step)
        chain.append(chain[-1] + step)
    pts = np.vstack([blob, chain])
    return pts[rng.permutation(len(pts))], tol


def _knn_rows(pts: np.ndarray, k: int = 12) -> np.ndarray:
    return cKDTree(pts).query(pts, k=k)[1]


def _row_edges(rows):
    """A stand-in for _lattice_edges that proposes (n, k) neighbour rows."""
    def edges(points, tolerance_mm):
        nbr = rows(points)
        return np.repeat(np.arange(len(points)), nbr.shape[1]), nbr.ravel()
    return edges


class TestNeighbours:
    """The certificate's proposed neighbour edges, off the lattice or k-NN
    rows, against the radius path and the oracle."""

    @staticmethod
    def _clouds():
        """The oracle's cases, plus connected clouds for the certificate."""
        cases = _random_scene_cases()
        (uniform, _), _, _, (lattice, _), (duplicated, _) = cases
        one_blob = np.random.default_rng(501).normal(0.0, 4.0, size=(400, 3))
        return cases + [(uniform, 40.0), (lattice, 3.0), (duplicated, 100.0),
                        (one_blob, 10.0)]

    # The lattice's own edges, and k-NN rows proposed in their place: the
    # distance check alone makes the certificate exact, whatever proposes
    # the edges.
    @pytest.mark.parametrize("rows", [
        pytest.param(None, id="lattice"), _knn_rows])
    def test_matches_radius_path_bit_for_bit(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(tp_cluster, "_lattice_edges", _row_edges(rows))
        searches = _counted(monkeypatch, "cKDTree")
        got, certified = [], 0
        for pts, tol in self._clouds():
            before = len(searches)
            got.append(euclidean_cluster(PointCloud(pts), tolerance_mm=tol))
            certified += len(searches) == before
        # The radius path alone.
        monkeypatch.setattr(tp_cluster, "_lattice_edges", lambda *args: None)
        for (pts, tol), clusters in zip(self._clouds(), got):
            expected = euclidean_cluster(PointCloud(pts), tolerance_mm=tol)
            assert len(clusters) == len(expected)
            for g, e in zip(clusters, expected):
                assert g.points.tobytes() == e.points.tobytes()
                assert g.points.flags.c_contiguous
        # Both paths ran: the lattice sites lie exactly 2.5 mm apart, so no
        # edge of that case passes the margin, while the single blob and
        # the wide tolerances are proved connected.
        assert 0 < certified < len(got)

    def test_knn_rows_across_a_gap_do_not_join(self, monkeypatch):
        # Two blobs of 6 points and k = 8: every k-NN row reaches across
        # the 50 mm gap. Those proposed edges are longer than the
        # tolerance, so they must be left out of the graph, not stored
        # with weight zero.
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, size=(6, 3))
        pts = np.vstack([a, a[::-1] + [50.0, 0.0, 0.0]])
        nbr = _knn_rows(pts, k=8)
        assert np.all((nbr[:6] >= 6).any(axis=1))
        assert np.all((nbr[6:] < 6).any(axis=1))
        expected = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0)
        monkeypatch.setattr(tp_cluster, "_lattice_edges",
                            _row_edges(lambda p: _knn_rows(p, k=8)))
        got = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0)
        assert [len(c) for c in got] == [6, 6]
        assert [c.points.tobytes() for c in got] == \
            [c.points.tobytes() for c in expected]

    def test_adjacent_cubes_beyond_tolerance_do_not_join(self):
        # Cubes of edge 10 / sqrt(3) mm: the second point lies in the cube
        # diagonally after the first one's, so the lattice proposes the
        # edge, but the points are ~2 tolerances apart.
        cell = 10.0 / np.sqrt(3.0)
        pts = np.array([[0.0, 0.0, 0.0], [1.99 * cell] * 3])
        heads, tails = tp_cluster._lattice_edges(pts, 10.0)
        assert (0, 1) in set(zip(heads.tolist(), tails.tolist()))
        got = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0)
        assert [len(c) for c in got] == [1, 1]

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=_near_tolerance_clouds())
    def test_matches_oracle_near_tolerance(self, case):
        pts, tol = case
        got = euclidean_cluster(PointCloud(pts), tolerance_mm=tol)
        assert as_sets(got, pts) == oracle_components(pts, tol)

    @pytest.mark.parametrize("far_mm, lattice", [
        pytest.param(2.0 ** 20 * 10.0 / np.sqrt(3.0), True, id="2^60"),
        pytest.param(2.0 ** 21 * 10.0 / np.sqrt(3.0), False, id="2^63"),
        pytest.param(1e150, False, id="1e150mm"),
    ])
    def test_grid_of_2_to_62_cubes_takes_the_radius_path(
            self, monkeypatch, far_mm, lattice):
        # Two points 2^k cubes apart per axis: (2^k + 3)^3 padded cubes fit
        # int64 keys at k = 20 and reach 2^62 at k = 21. A 1e150 mm extent
        # would need ~1e450 cubes; its float count must not warn.
        checks = _counted(monkeypatch, "_edges_connect")
        pts = np.array([[0.0, 0.0, 0.0], [far_mm] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = euclidean_cluster(PointCloud(pts), tolerance_mm=10.0)
        assert [len(c) for c in got] == [1, 1]
        assert bool(checks) == lattice
