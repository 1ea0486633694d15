"""Tests for single-teat pose estimation.

Covers the TeatPose container, axis sign disambiguation, tip location, and
the full estimate_teat_pose path. Exactness checks run on deterministic
axisymmetric ring samplings of the teat surface (their principal axis is the
true axis by symmetry); noisy checks use the uniform area sampler and assert
statistical bounds frozen from calibration runs.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import teatpose.cluster as tp_cluster
import teatpose.pose as tp_pose
from _oracles import (axis_angle_deg, random_teat, sample_teat_surface,
                      teat_rings)
from teatpose.axes import pca_axis
from teatpose.camera import CameraModel
from teatpose.cloud import PointCloud
from teatpose.errors import (InsufficientPointsError, InvalidInputError,
                             TeatPoseError)
from teatpose.pose import (PoseConfig, TeatPose, disambiguate_direction,
                           estimate_teat_pose, locate_tip)
from teatpose.mask import TeatMask
from teatpose.scene import TeatSpec, default_scene, render

_POSE = dict(teat_id="T1", tip_mm=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
             n_points=50)
_PIXEL = np.ones((1, 1), dtype=bool)


@st.composite
def _degenerate_points(draw):
    """Finite (n, 3) clouds that are coincident, collinear, planar or a
    few points duplicated many times, at offsets and spreads up to 1e12."""
    big = st.floats(-1e12, 1e12, allow_nan=False)
    origin = np.array(draw(st.tuples(big, big, big)))
    dirs = np.array(draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3),
                                  min_size=2, max_size=2)))
    dirs[np.linalg.norm(dirs, axis=1) == 0.0] = [1.0, 0.0, 0.0]
    u, v = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 10.0, 1e3, 1e12]))
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s, t = rng.uniform(-spread, spread, (2, n, 1))
    kind = draw(st.sampled_from(["coincident", "collinear", "planar",
                                 "duplicated"]))
    if kind == "coincident":
        return np.tile(origin, (n, 1))
    if kind == "collinear":
        return origin + s * u
    if kind == "planar":
        return origin + s * u + t * v
    few = origin + rng.uniform(-spread, spread, (draw(st.integers(1, 4)), 3))
    return few[rng.integers(0, len(few), n)]


class TestTeatPose:

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            TeatPose(teat_id="T1", tip_mm=np.zeros(3),
                     axis=np.array([0.0, 0.0, 2.0]), n_points=50)

    @pytest.mark.parametrize("field, value", [
        ("tip_mm", [np.nan, 0.0, 0.0]), ("axis", [np.nan, 0.0, 0.0]),
        ("n_points", -3),
    ])
    def test_non_finite_or_negative_fields_rejected(self, field, value):
        kwargs = dict(teat_id="T1", tip_mm=np.zeros(3),
                      axis=np.array([0.0, 0.0, 1.0]), n_points=50)
        kwargs[field] = value
        with pytest.raises(InvalidInputError, match=field):
            TeatPose(**kwargs)

    def test_n_points_must_be_integral(self):
        kwargs = dict(teat_id="T1", tip_mm=np.zeros(3),
                      axis=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InvalidInputError, match="n_points"):
            TeatPose(n_points=2.5, **kwargs)
        for n in (np.int64(7), np.int32(7)):
            assert TeatPose(n_points=n, **kwargs).to_dict()["n_points"] == 7

    # A stamp or count is an integer >= 0 from construction on: to_dict
    # would truncate 2.5 and raise a bare ValueError, outside
    # TeatPoseError, on "x".
    @pytest.mark.parametrize("make", [
        lambda: TeatPose(stamp_us=2.5, **_POSE),
        lambda: TeatPose(stamp_us=True, **_POSE),
        lambda: TeatPose(stamp_us=-1, **_POSE),
        lambda: TeatPose(stamp_us="x", **_POSE),
        lambda: TeatPose(**{**_POSE, "n_points": True}),
        lambda: TeatPose(**{**_POSE, "n_points": 7.0}),
        lambda: TeatMask("T", "x", _PIXEL),
        lambda: TeatMask("T", 2.5, _PIXEL),
        lambda: TeatMask("T", np.float64(3.0), _PIXEL),
        lambda: TeatMask("T", False, _PIXEL),
        lambda: TeatMask("T", -1, _PIXEL),
        lambda: render(default_scene(seed=0), stamp_us=2.5),
    ], ids=["pose_float_stamp", "pose_bool_stamp", "pose_negative_stamp",
            "pose_str_stamp", "pose_bool_count", "pose_float_count",
            "mask_str_stamp", "mask_float_stamp", "mask_numpy_float_stamp",
            "mask_bool_stamp", "mask_negative_stamp", "render_float_stamp"])
    def test_stamp_and_count_must_be_integers(self, make):
        with pytest.raises(InvalidInputError, match="must be an integer >= 0"):
            make()

    def test_arrays_immutable(self):
        pose = TeatPose(teat_id="T1", tip_mm=np.array([1.0, 2.0, 3.0]),
                        axis=np.array([0.0, 0.0, 1.0]), n_points=50)
        with pytest.raises(ValueError):
            pose.tip_mm[0] = 9.0
        with pytest.raises(ValueError):
            pose.axis[2] = -1.0


class TestPoseConfig:

    def test_defaults_valid(self):
        cfg = PoseConfig()
        assert (cfg.voxel_leaf_mm, cfg.tip_slab_mm) == (5.0, 5.0)

    def test_nonpositive_slab_rejected(self):
        with pytest.raises(InvalidInputError):
            PoseConfig(tip_slab_mm=0.0)

    @pytest.mark.parametrize("field, value", [
        ("voxel_leaf_mm", 0.0), ("tip_slab_mm", float("nan")),
        # An infinite leaf fails every teat in voxel_downsample; an infinite
        # slab silently takes the whole cloud as the tip cap.
        ("voxel_leaf_mm", np.inf), ("tip_slab_mm", np.inf),
    ])
    def test_geometry_bounds_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PoseConfig(**{field: value})


class TestDisambiguateDirection:

    @staticmethod
    def _vertical_teat():
        # A camera looking along world +y at a teat on the world z axis.
        camera = CameraModel.look_at((0.0, -600.0, 0.0), (0.0, 0.0, 0.0))
        cloud = PointCloud(camera.world_to_camera(
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -50.0]])))
        return camera, cloud, camera.rotation.T @ np.array([0.0, 0.0, 1.0])

    def test_world_up_kept(self):
        camera, cloud, up = self._vertical_teat()
        out = disambiguate_direction(up, cloud, camera)
        np.testing.assert_allclose(out, up)

    def test_world_down_flipped(self):
        camera, cloud, up = self._vertical_teat()
        out = disambiguate_direction(-up, cloud, camera)
        np.testing.assert_allclose(out, up)

    def test_zero_axis_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]))
        with pytest.raises(InvalidInputError):
            disambiguate_direction(np.zeros(3), cloud, camera)

    @pytest.mark.parametrize("axis", [[np.nan, 0.0, 0.0],
                                      [np.inf, 0.0, 1.0]])
    def test_non_finite_axis_rejected(self, axis):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]))
        with pytest.raises(InvalidInputError, match="axis"):
            disambiguate_direction(np.array(axis), cloud, camera)

    def test_horizontal_axis_points_away_from_sensor(self):
        # identity extrinsics: up_in_camera = (0, 0, 1), sensor at the origin.
        # Axis along camera x is orthogonal to up, so the fallback kicks in:
        # the near end is the tip, the axis must run toward the far end.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        pts = np.column_stack([np.linspace(0.0, 100.0, 40),
                               np.zeros(40), np.full(40, 500.0)])
        cloud = PointCloud(pts)
        for sign in (1.0, -1.0):
            out = disambiguate_direction(sign * np.array([1.0, 0.0, 0.0]),
                                         cloud, camera)
            np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_randomized_tilts_point_tip_to_base(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            teat = random_teat(rng)
            pts = sample_teat_surface(teat, 400, rng)
            camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                         teat.tip_mm)
            cloud = PointCloud(camera.world_to_camera(pts))
            axis_cam = camera.rotation.T @ teat.axis
            sign = 1.0 if rng.random() < 0.5 else -1.0
            out = disambiguate_direction(sign * axis_cam, cloud, camera)
            # tip -> base is the negative of the spec axis (base -> tip)
            np.testing.assert_allclose(out, -axis_cam, atol=1e-12)

    def test_camera_frame_uses_camera_up(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 600.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                     teat.tip_mm)
        rng = np.random.default_rng(5)
        pts = sample_teat_surface(teat, 400, rng)
        cloud = PointCloud(camera.world_to_camera(pts))
        axis_cam = camera.rotation.T @ -teat.axis
        out = disambiguate_direction(-axis_cam, cloud, camera)
        np.testing.assert_allclose(out, axis_cam, atol=1e-12)


class TestLocateTip:

    def test_empty_rejected(self):
        cloud = PointCloud(np.empty((0, 3)))
        with pytest.raises(InsufficientPointsError):
            locate_tip(cloud, np.array([0.0, 0.0, 1.0]))

    def test_nan_slab_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]))
        with pytest.raises(InvalidInputError, match="slab_mm"):
            locate_tip(cloud, np.array([0.0, 0.0, 1.0]), slab_mm=np.nan)

    def test_infinite_slab_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]))
        with pytest.raises(InvalidInputError, match="slab_mm"):
            locate_tip(cloud, np.array([0.0, 0.0, 1.0]), slab_mm=np.inf)

    @pytest.mark.parametrize("axis", [[np.nan, 0.0, 0.0],
                                      [0.0, -np.inf, 1.0]])
    def test_non_finite_axis_rejected(self, axis):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(50, 3)) + [0.0, 0.0, 500.0])
        with pytest.raises(InvalidInputError, match="axis"):
            locate_tip(cloud, np.array(axis))

    # The axial coordinates scale with |axis|: unchecked, a (0, 0, 2) axis
    # moved this cloud's tip from z = -46.0 to -154.2 mm.
    @pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 1e-6])
    def test_non_unit_axis_rejected(self, scale):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(200, 3)) * [5.0, 5.0, 20.0])
        with pytest.raises(InvalidInputError, match="unit length"):
            locate_tip(cloud, np.array([0.0, 0.0, scale]))

    def test_single_point_returns_it(self):
        p = np.array([3.0, -2.0, 500.0])
        cloud = PointCloud(p[None, :])
        np.testing.assert_allclose(locate_tip(cloud, np.array([0.0, 0.0, 1.0])),
                                   p, atol=1e-12)

    def test_flat_patch_falls_back_to_percentile(self):
        xx, yy = np.meshgrid(np.linspace(-20.0, 20.0, 15),
                             np.linspace(-20.0, 20.0, 15))
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        cloud = PointCloud(pts)
        tip = locate_tip(cloud, np.array([0.0, 0.0, 1.0]))
        # the slab centroid at the axial percentile of z = 0
        np.testing.assert_allclose(tip, [0.0, 0.0, 0.0], atol=1e-9)


class TestEstimateTeatPose:

    @staticmethod
    def _camera_cloud(teat, points_world):
        camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                     teat.tip_mm)
        return camera, PointCloud(camera.world_to_camera(points_world))

    def test_noiseless_rings_sub_half_degree(self):
        teat = TeatSpec(base_mm=np.array([10.0, -5.0, 640.0]),
                        axis=np.array([0.1, 0.05, -1.0]))
        camera, cloud = self._camera_cloud(teat, teat_rings(teat, azimuths=48))
        pose = estimate_teat_pose(cloud, camera, teat_id="T1")
        assert pose.teat_id == "T1"
        assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 0.5
        assert axis_angle_deg(pose.axis, teat.axis) < 0.5
        # sign convention: tip -> base, i.e. opposite the spec axis
        assert float(pose.axis @ -teat.axis) > 0

    def test_noisy_clouds_within_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            teat = random_teat(rng)
            pts = sample_teat_surface(teat, 4000, rng, noise_mm=1.0)
            camera, cloud = self._camera_cloud(teat, pts)
            pose = estimate_teat_pose(cloud, camera)
            assert axis_angle_deg(pose.axis, teat.axis) < 5.0
            assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 2.0

    def test_noiseless_cap_recovered_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            teat = random_teat(rng)
            camera, cloud = self._camera_cloud(teat,
                                               teat_rings(teat, azimuths=48))
            pose = estimate_teat_pose(cloud, camera)
            # exact capsule fit on exact wall and cap samples
            assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 1e-6

    def test_one_mm_noise_stays_under_two_mm(self):
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(100):
            teat = random_teat(rng)
            pts = sample_teat_surface(teat, 3000, rng, noise_mm=1.0)
            camera, cloud = self._camera_cloud(teat, pts)
            pose = estimate_teat_pose(cloud, camera)
            errors.append(np.linalg.norm(pose.tip_mm - teat.tip_mm))
        errors = np.array(errors)
        assert errors.mean() < 1.0
        assert errors.max() < 2.0

    def _seed_case(self):
        """(camera, cloud, seed tip, seed axis): a noisy teat and the world
        pose estimate_teat_pose reports when its capsule fit is refused."""
        rng = np.random.default_rng(15)
        teat = random_teat(rng)
        camera, cloud = self._camera_cloud(
            teat, sample_teat_surface(teat, 3000, rng, noise_mm=1.0))
        axis = disambiguate_direction(pca_axis(cloud), cloud, camera)
        tip = camera.camera_to_world(locate_tip(cloud, axis))
        axis = camera.rotate_to_world(axis)
        return camera, cloud, tip, axis / np.linalg.norm(axis)

    def test_unconverged_fit_keeps_the_seed(self, monkeypatch):
        camera, cloud, tip, axis = self._seed_case()
        fitted = estimate_teat_pose(cloud, camera)
        monkeypatch.setattr(tp_pose, "_FIT_MAX_ITER", 1)
        pose = estimate_teat_pose(cloud, camera)
        assert pose.tip_mm.tobytes() == tip.tobytes()
        assert pose.axis.tobytes() == axis.tobytes()
        assert np.linalg.norm(fitted.tip_mm - pose.tip_mm) > 1e-3

    # A Gauss-Newton step in (C, two turns of a, r) that the fit rejects,
    # or None where np.linalg.solve raises. Any finite step counts as
    # converged under the test's step tolerance, so the first step is final.
    @pytest.mark.parametrize("step", [
        None,
        [0.0, 0.0, 0.0, 0.0, 0.0, -1e3],
        [0.0, 0.0, 1e3, 0.0, 0.0, 0.0],
    ], ids=["singular_normal_matrix", "radius_not_positive",
            "tip_beyond_two_radii"])
    def test_refused_fit_keeps_the_seed(self, monkeypatch, step):
        camera, cloud, tip, axis = self._seed_case()
        solves = []

        def solve(h, rhs):
            solves.append(h.shape)
            if step is None:
                raise np.linalg.LinAlgError("singular matrix")
            return np.array(step)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(tp_pose, "_FIT_STEP_TOL", np.inf)
        pose = estimate_teat_pose(cloud, camera)
        # One step ran and the fit stopped on it.
        assert solves == [(6, 6)]
        assert pose.tip_mm.tobytes() == tip.tobytes()
        assert pose.axis.tobytes() == axis.tobytes()

    def test_too_few_points_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(0.0, 30.0, (8, 3)) + [0, 0, 500])
        with pytest.raises(InsufficientPointsError):
            estimate_teat_pose(cloud, camera)

    @classmethod
    def _rings_and_stray_blob(cls):
        """(teat, rings, camera, cloud): the rings plus a 20-point blob."""
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 640.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        rings = teat_rings(teat, azimuths=48)
        # stray blob well beyond the cluster tolerance
        blob = np.tile(teat.tip_mm + [200.0, 0.0, 0.0], (20, 1)) \
            + np.linspace(0.0, 2.0, 20)[:, None]
        return (teat, rings,
                *cls._camera_cloud(teat, np.vstack([rings, blob])))

    def test_largest_cluster_wins(self):
        teat, rings, camera, cloud = self._rings_and_stray_blob()
        pose = estimate_teat_pose(cloud, camera)
        assert pose.n_points == len(rings)
        assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 0.5

    def test_lattice_clustering_matches_radius_clustering(self, monkeypatch):
        # euclidean_cluster first tries to prove the teat connected on its
        # lattice. The poses must be those of radius clustering, bit for bit.
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(6):
            teat = random_teat(rng)
            pts = sample_teat_surface(teat, 3000, rng, noise_mm=1.0)
            cases.append(self._camera_cloud(teat, pts))
        # The stray blob is far from the teat: the radius path runs.
        cases.append(self._rings_and_stray_blob()[2:])
        got = [estimate_teat_pose(cloud, camera) for camera, cloud in cases]

        monkeypatch.setattr(tp_cluster, "_lattice_edges", lambda *args: None)
        for pose, (camera, cloud) in zip(got, cases):
            ref = estimate_teat_pose(cloud, camera)
            assert pose.tip_mm.tobytes() == ref.tip_mm.tobytes()
            assert pose.axis.tobytes() == ref.axis.tobytes()
            assert pose.n_points == ref.n_points

    @pytest.mark.parametrize("stray", [False, True])
    def test_at_most_one_neighbour_search_per_teat(self, monkeypatch, stray):
        # A connected teat builds no k-d tree: the lattice proves it one
        # cluster. A teat with a stray blob needs one radius search.
        calls = []

        def spy(name, fn):
            def traced(data, *args, **kwargs):
                calls.append((name, len(data)))
                return fn(data, *args, **kwargs)
            return traced

        class CountedTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                calls.append(("cKDTree", len(data)))
                super().__init__(data, *args, **kwargs)

            def query_pairs(self, *args, **kwargs):
                calls.append(("query_pairs", self.n))
                return super().query_pairs(*args, **kwargs)

        monkeypatch.setattr(tp_cluster, "cKDTree", CountedTree)
        for name in ("euclidean_cluster", "pca_axis"):
            monkeypatch.setattr(tp_pose, name,
                                spy(name, getattr(tp_pose, name)))
        if stray:
            _, rings, camera, cloud = self._rings_and_stray_blob()
        else:
            rng = np.random.default_rng(14)
            teat = random_teat(rng)
            camera, cloud = self._camera_cloud(
                teat, sample_teat_surface(teat, 3000, rng, noise_mm=1.0))
        pose = estimate_teat_pose(cloud, camera)
        search = [("cKDTree", len(cloud)), ("query_pairs", len(cloud))]
        if stray:
            assert pose.n_points == len(rings)
        assert calls == [("euclidean_cluster", len(cloud)),
                         *(search if stray else []),
                         ("pca_axis", pose.n_points)]

    def test_overflowing_extent_rejected(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.uniform(-1.0, 1.0, (40, 3)) + [0.0, 0.0, 500.0],
                         [1e155, 0.0, 500.0]])
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        with pytest.raises(InvalidInputError, match="extent"):
            estimate_teat_pose(PointCloud(pts), camera)

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(points=_degenerate_points())
    def test_degenerate_clouds_raise_only_teatpose_errors(self, points):
        # estimate_frame skips a teat only on TeatPoseError; anything else
        # would abort the whole frame and the pipeline run with it.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        try:
            estimate_teat_pose(PointCloud(points), camera)
        except TeatPoseError:
            pass

    def test_estimator_sign_is_never_read(self, monkeypatch):
        # disambiguate_direction alone decides the sign: an estimator that
        # returns the negated axis gives the same pose, bit for bit.
        rng = np.random.default_rng(5)
        teat = random_teat(rng)
        camera, cloud = self._camera_cloud(
            teat, sample_teat_surface(teat, 3000, rng, noise_mm=1.0))
        ref = estimate_teat_pose(cloud, camera)
        fn = tp_pose.pca_axis
        monkeypatch.setattr(tp_pose, "pca_axis", lambda data: -fn(data))
        neg = estimate_teat_pose(cloud, camera)
        assert neg.tip_mm.tobytes() == ref.tip_mm.tobytes()
        assert neg.axis.tobytes() == ref.axis.tobytes()
        assert neg.to_dict() == ref.to_dict()

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        teat = random_teat(rng)
        pts = sample_teat_surface(teat, 2000, rng, noise_mm=1.0)
        camera, cloud = self._camera_cloud(teat, pts)
        first = estimate_teat_pose(cloud, camera, stamp_us=42)
        second = estimate_teat_pose(cloud, camera, stamp_us=42)
        np.testing.assert_array_equal(first.tip_mm, second.tip_mm)
        np.testing.assert_array_equal(first.axis, second.axis)
        assert first.n_points == second.n_points
        assert first.stamp_us == 42
