"""Tests for single-teat pose estimation.

Covers the TeatPose container, axis sign disambiguation, tip location, and
the full estimate_teat_pose path for both axis methods. Exactness checks run
on deterministic axisymmetric ring samplings of the teat surface (their
principal axis is the true axis by symmetry); noisy checks use the uniform
area sampler and assert statistical bounds frozen from calibration runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teatpose.axes as tp_axes
import teatpose.pose as tp_pose
from teatpose.camera import CameraModel
from teatpose.cloud import FRAME_CAMERA, FRAME_WORLD, PointCloud
from teatpose.errors import (FrameMismatchError, InsufficientPointsError,
                             InvalidInputError, TeatPoseError)
from teatpose.pose import (PoseConfig, TeatPose, disambiguate_direction,
                           estimate_teat_pose, locate_tip)
from teatpose.scene import TeatSpec, sample_teat_surface


def _orthobasis(axis):
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(ref, axis)
    u /= np.linalg.norm(u)
    return u, np.cross(axis, u)


def _teat_rings(teat, step_mm=1.5, azimuths=48):
    """Deterministic rings on the wall and tip cap of a TeatSpec.

    Axisymmetric by construction, so the point covariance's major axis is
    exactly the teat axis and the cap points lie exactly on the tip sphere.
    """
    a = teat.axis
    u, v = _orthobasis(a)
    r = teat.radius_mm
    h = teat.length_mm - r
    theta = np.linspace(0.0, 2.0 * np.pi, azimuths, endpoint=False)
    ring = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    rows = []
    for t in np.arange(0.0, h + 1e-9, step_mm):
        rows.append(teat.base_mm + t * a + r * ring)
    for ds in np.arange(step_mm, r, step_mm):
        rho = np.sqrt(r * r - ds * ds)
        rows.append(teat.cap_center_mm + ds * a + rho * ring)
    rows.append(teat.tip_mm[None, :])
    return np.concatenate(rows)


def _angle_deg(a, b):
    return np.degrees(np.arccos(np.clip(np.abs(np.dot(a, b)), -1.0, 1.0)))


def _random_teat(rng, max_tilt_deg=30.0):
    tilt = np.radians(rng.uniform(0.0, max_tilt_deg))
    az = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.array([np.sin(tilt) * np.cos(az),
                     np.sin(tilt) * np.sin(az),
                     -np.cos(tilt)])
    base = rng.uniform(-50.0, 50.0, 3) + np.array([0.0, 0.0, 600.0])
    return TeatSpec(base_mm=base, axis=axis)


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
                     axis=np.array([0.0, 0.0, 2.0]), method="pca", n_points=50)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            TeatPose(teat_id="T1", tip_mm=np.zeros(3),
                     axis=np.array([0.0, 0.0, 1.0]), method="ransac",
                     n_points=50)

    @pytest.mark.parametrize("field, value", [
        ("tip_mm", [np.nan, 0.0, 0.0]), ("axis", [np.nan, 0.0, 0.0]),
        ("n_points", -3),
    ])
    def test_non_finite_or_negative_fields_rejected(self, field, value):
        kwargs = dict(teat_id="T1", tip_mm=np.zeros(3),
                      axis=np.array([0.0, 0.0, 1.0]), method="pca",
                      n_points=50)
        kwargs[field] = value
        with pytest.raises(InvalidInputError, match=field):
            TeatPose(**kwargs)

    def test_arrays_immutable(self):
        pose = TeatPose(teat_id="T1", tip_mm=np.array([1.0, 2.0, 3.0]),
                        axis=np.array([0.0, 0.0, 1.0]), method="pca",
                        n_points=50)
        with pytest.raises(ValueError):
            pose.tip_mm[0] = 9.0
        with pytest.raises(ValueError):
            pose.axis[2] = -1.0


class TestPoseConfig:

    def test_defaults_valid(self):
        cfg = PoseConfig()
        assert cfg.method == "normals"
        assert cfg.stride == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            PoseConfig(method="hough")

    def test_nonpositive_slab_rejected(self):
        with pytest.raises(InvalidInputError):
            PoseConfig(tip_slab_mm=0.0)

    @pytest.mark.parametrize("field, value", [
        ("voxel_leaf_mm", 0.0), ("stride", 0), ("stride", 1.5),
        ("stride", float("nan")), ("tip_slab_mm", float("nan")),
    ])
    def test_geometry_bounds_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PoseConfig(**{field: value})


class TestDisambiguateDirection:

    def test_world_up_kept(self):
        camera = CameraModel.look_at((0.0, -600.0, 0.0), (0.0, 0.0, 0.0))
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -50.0]]),
                           frame=FRAME_WORLD)
        out = disambiguate_direction(np.array([0.0, 0.0, 1.0]), cloud, camera)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])

    def test_world_down_flipped(self):
        camera = CameraModel.look_at((0.0, -600.0, 0.0), (0.0, 0.0, 0.0))
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -50.0]]),
                           frame=FRAME_WORLD)
        out = disambiguate_direction(np.array([0.0, 0.0, -1.0]), cloud, camera)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])

    def test_zero_axis_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]), frame=FRAME_CAMERA)
        with pytest.raises(InvalidInputError):
            disambiguate_direction(np.zeros(3), cloud, camera)

    def test_horizontal_axis_points_away_from_sensor(self):
        # identity extrinsics: up_in_camera = (0, 0, 1), sensor at the origin.
        # Axis along camera x is orthogonal to up, so the fallback kicks in:
        # the near end is the tip, the axis must run toward the far end.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        pts = np.column_stack([np.linspace(0.0, 100.0, 40),
                               np.zeros(40), np.full(40, 500.0)])
        cloud = PointCloud(pts, frame=FRAME_CAMERA)
        for sign in (1.0, -1.0):
            out = disambiguate_direction(sign * np.array([1.0, 0.0, 0.0]),
                                         cloud, camera)
            np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_randomized_tilts_point_tip_to_base(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            teat = _random_teat(rng)
            pts = sample_teat_surface(teat, 400, rng)
            cloud = PointCloud(pts, frame=FRAME_WORLD)
            camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                         teat.tip_mm)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            out = disambiguate_direction(sign * teat.axis, cloud, camera)
            # tip -> base is the negative of the spec axis (base -> tip)
            np.testing.assert_allclose(out, -teat.axis, atol=1e-12)

    def test_camera_frame_uses_camera_up(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 600.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                     teat.tip_mm)
        rng = np.random.default_rng(5)
        pts = sample_teat_surface(teat, 400, rng)
        cloud = PointCloud(camera.world_to_camera(pts), frame=FRAME_CAMERA)
        axis_cam = camera.rotation.T @ -teat.axis
        out = disambiguate_direction(-axis_cam, cloud, camera)
        np.testing.assert_allclose(out, axis_cam, atol=1e-12)


class TestLocateTip:

    def test_empty_rejected(self):
        cloud = PointCloud(np.empty((0, 3)), frame=FRAME_CAMERA)
        with pytest.raises(InsufficientPointsError):
            locate_tip(cloud, np.array([0.0, 0.0, 1.0]))

    def test_nan_slab_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 500.0]]), frame=FRAME_CAMERA)
        with pytest.raises(InvalidInputError, match="slab_mm"):
            locate_tip(cloud, np.array([0.0, 0.0, 1.0]), slab_mm=np.nan)

    def test_single_point_returns_it(self):
        p = np.array([3.0, -2.0, 500.0])
        cloud = PointCloud(p[None, :], frame=FRAME_CAMERA)
        np.testing.assert_allclose(locate_tip(cloud, np.array([0.0, 0.0, 1.0])),
                                   p, atol=1e-12)

    def test_noiseless_cap_recovered_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            teat = _random_teat(rng)
            cloud = PointCloud(_teat_rings(teat), frame=FRAME_WORLD)
            tip = locate_tip(cloud, -teat.axis)
            # exact sphere fit on exact cap samples
            assert np.linalg.norm(tip - teat.tip_mm) < 1e-6

    def test_flat_patch_falls_back_to_percentile(self):
        xx, yy = np.meshgrid(np.linspace(-20.0, 20.0, 15),
                             np.linspace(-20.0, 20.0, 15))
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        cloud = PointCloud(pts, frame=FRAME_CAMERA)
        tip = locate_tip(cloud, np.array([0.0, 0.0, 1.0]))
        # a plane has no finite tip sphere; axial percentile of z = 0
        np.testing.assert_allclose(tip, [0.0, 0.0, 0.0], atol=1e-9)

    def test_one_mm_noise_stays_under_two_mm(self):
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(100):
            teat = _random_teat(rng)
            pts = sample_teat_surface(teat, 3000, rng, noise_mm=1.0)
            cloud = PointCloud(pts, frame=FRAME_WORLD)
            tip = locate_tip(cloud, -teat.axis)
            errors.append(np.linalg.norm(tip - teat.tip_mm))
        errors = np.array(errors)
        assert errors.mean() < 1.0
        assert errors.max() < 2.0


class TestEstimateTeatPose:

    @staticmethod
    def _camera_cloud(teat, points_world):
        camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                     teat.tip_mm)
        return camera, PointCloud(camera.world_to_camera(points_world),
                                  frame=FRAME_CAMERA)

    @pytest.mark.parametrize("method", ["pca", "normals"])
    def test_noiseless_rings_sub_half_degree(self, method):
        teat = TeatSpec(base_mm=np.array([10.0, -5.0, 640.0]),
                        axis=np.array([0.1, 0.05, -1.0]))
        camera, cloud = self._camera_cloud(teat, _teat_rings(teat))
        pose = estimate_teat_pose(cloud, camera,
                                  config=PoseConfig(method=method),
                                  teat_id="T1")
        assert pose.method == method
        assert pose.teat_id == "T1"
        assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 0.5
        assert _angle_deg(pose.axis, teat.axis) < 0.5
        # sign convention: tip -> base, i.e. opposite the spec axis
        assert float(pose.axis @ -teat.axis) > 0

    def test_methods_agree_on_noisy_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            teat = _random_teat(rng)
            pts = sample_teat_surface(teat, 4000, rng, noise_mm=1.0)
            camera, cloud = self._camera_cloud(teat, pts)
            pca = estimate_teat_pose(cloud, camera,
                                     config=PoseConfig(method="pca"))
            nrm = estimate_teat_pose(cloud, camera,
                                     config=PoseConfig(method="normals"))
            assert _angle_deg(pca.axis, nrm.axis) < 5.0
            assert _angle_deg(pca.axis, teat.axis) < 5.0
            assert _angle_deg(nrm.axis, teat.axis) < 5.0
            assert np.linalg.norm(pca.tip_mm - teat.tip_mm) < 2.0
            assert np.linalg.norm(nrm.tip_mm - teat.tip_mm) < 2.0

    def test_refinement_reuse_matches_fresh_wall_search(self, monkeypatch):
        # Each wall pass copies the cluster's normals where it can; a fresh
        # search of every wall point must give the same axis, bit for bit.
        rng = np.random.default_rng(12)
        clouds = []
        for _ in range(6):
            teat = _random_teat(rng)
            pts = sample_teat_surface(teat, 3000, rng, noise_mm=1.0)
            clouds.append(self._camera_cloud(teat, pts))
        reused = [estimate_teat_pose(cloud, camera)
                  for camera, cloud in clouds]
        walls = []

        def fresh(cloud, k, camera_origin=(0.0, 0.0, 0.0), *, subset_of=None):
            if subset_of is not None:
                walls.append(len(cloud))
            return tp_axes.estimate_normals(cloud, k, camera_origin)

        monkeypatch.setattr(tp_pose, "estimate_normals", fresh)
        for pose, (camera, cloud) in zip(reused, clouds):
            again = estimate_teat_pose(cloud, camera)
            assert again.axis.tobytes() == pose.axis.tobytes()
            assert again.tip_mm.tobytes() == pose.tip_mm.tobytes()
        assert min(walls) >= 400

    def test_too_few_points_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(0.0, 30.0, (8, 3)) + [0, 0, 500],
                           frame=FRAME_CAMERA)
        with pytest.raises(InsufficientPointsError):
            estimate_teat_pose(cloud, camera)

    def test_largest_cluster_wins(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 640.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        rings = _teat_rings(teat)
        # stray blob well beyond the cluster tolerance
        blob = np.tile(teat.tip_mm + [200.0, 0.0, 0.0], (20, 1)) \
            + np.linspace(0.0, 2.0, 20)[:, None]
        camera, cloud = self._camera_cloud(teat, np.vstack([rings, blob]))
        pose = estimate_teat_pose(cloud, camera)
        assert pose.n_points == len(rings)
        assert np.linalg.norm(pose.tip_mm - teat.tip_mm) < 0.5

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(points=_degenerate_points(),
           method=st.sampled_from(["pca", "normals"]))
    def test_degenerate_clouds_raise_only_teatpose_errors(self, points,
                                                          method):
        # estimate_frame skips a teat only on TeatPoseError; anything else
        # would abort the whole frame and the pipeline run with it.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        try:
            estimate_teat_pose(PointCloud(points, frame=FRAME_CAMERA), camera,
                               config=PoseConfig(method=method))
        except TeatPoseError:
            pass

    def test_world_frame_input_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = PointCloud(np.zeros((40, 3)), frame=FRAME_WORLD)
        with pytest.raises(FrameMismatchError):
            estimate_teat_pose(cloud, camera)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        teat = _random_teat(rng)
        pts = sample_teat_surface(teat, 2000, rng, noise_mm=1.0)
        camera, cloud = self._camera_cloud(teat, pts)
        first = estimate_teat_pose(cloud, camera, stamp_us=42)
        second = estimate_teat_pose(cloud, camera, stamp_us=42)
        np.testing.assert_array_equal(first.tip_mm, second.tip_mm)
        np.testing.assert_array_equal(first.axis, second.axis)
        assert first.n_points == second.n_points
        assert first.stamp_us == 42
