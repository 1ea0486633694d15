"""Pinhole camera tests.

The round-trip property project(backproject(px, d)) == px, with the
plain pinhole inverse of `_oracles.backproject`, is the oracle for
projection; it is checked over 1000 random pixel/depth draws.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from _oracles import backproject
from teatpose.camera import WORLD_UP, CameraModel
from teatpose.errors import InvalidInputError


def _cam(fx=500.0, fy=500.0, cx=320.0, cy=240.0, **kw) -> CameraModel:
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, **kw)


def _rotation_xyz(ax: float, ay: float, az: float) -> np.ndarray:
    cx_, sx = np.cos(ax), np.sin(ax)
    cy_, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx_, -sx], [0, sx, cx_]])
    ry = np.array([[cy_, 0, sy], [0, 1, 0], [-sy, 0, cy_]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestBackproject:
    def test_round_trip_oracle(self):
        # project(backproject(px, d)) = px within 1e-6 px, 1000 random draws.
        rng = np.random.default_rng(42)
        cam = _cam(fx=525.5, fy=512.25, cx=319.5, cy=239.5)
        for _ in range(1000):
            u = rng.uniform(0.0, cam.width)
            v = rng.uniform(0.0, cam.height)
            d = rng.uniform(1.0, 5000.0)
            uv = cam.project(backproject(cam, (u, v), d))
            np.testing.assert_allclose(uv, [u, v], atol=1e-6)


class TestProject:
    def test_batch_matches_single(self):
        cam = _cam()
        pts = np.array([[0.0, 0.0, 1000.0], [100.0, -50.0, 500.0]])
        batch = cam.project(pts)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(batch[i], cam.project(p))

    def test_rejects_nonpositive_z(self):
        cam = _cam()
        with pytest.raises(InvalidInputError):
            cam.project(np.array([0.0, 0.0, 0.0]))


class TestValidation:
    def test_rejects_bad_focal(self):
        with pytest.raises(InvalidInputError):
            _cam(fx=0.0)
        with pytest.raises(InvalidInputError, match="fx"):
            _cam(fx=float("nan"))

    @pytest.mark.parametrize("field", ["fx", "fy"])
    def test_rejects_infinite_focal(self, field):
        # It would only fail later, as an OverflowError in render.
        with pytest.raises(InvalidInputError, match=field):
            _cam(**{field: float("inf")})

    @pytest.mark.parametrize("field, value", [
        ("width", 640.5), ("width", 640.0), ("height", np.float64(480.0)),
        ("width", True), ("height", 0),
    ])
    def test_rejects_non_integer_image_size(self, field, value):
        # A float size would only fail later, in render's array shapes.
        with pytest.raises(InvalidInputError, match=field):
            _cam(**{field: value})

    def test_accepts_numpy_integer_image_size(self):
        cam = _cam(width=np.int64(640), height=np.int32(480))
        assert (cam.width, cam.height) == (640, 480)
        assert json.loads(json.dumps(cam.to_dict()))["width"] == 640

    def test_rejects_principal_point_outside(self):
        with pytest.raises(InvalidInputError):
            _cam(cx=640.0)

    @pytest.mark.parametrize("rotation, match", [
        (np.eye(2), "3x3"), (np.eye(4), "3x3"), (np.ones(9), "3x3"),
        (np.diag([1.0, np.nan, 1.0]), "non-finite"),
        (np.diag([1.0, 1.0, np.inf]), "non-finite"),
    ], ids=["2x2", "4x4", "flat", "nan", "inf"])
    def test_rejects_malformed_rotation(self, rotation, match):
        with pytest.raises(InvalidInputError, match=match):
            _cam(rotation=rotation)

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(InvalidInputError):
            _cam(rotation=np.eye(3) * 2.0)

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            _cam(rotation=r)

    def test_accepts_proper_rotation(self):
        r = _rotation_xyz(0.3, -0.2, 1.1)
        cam = _cam(rotation=r, translation_mm=[10.0, 20.0, 30.0])
        np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3),
                                   atol=1e-12)
        assert np.isclose(np.linalg.det(cam.rotation), 1.0)


class TestExtrinsics:
    def test_world_round_trip(self):
        rng = np.random.default_rng(7)
        cam = _cam(rotation=_rotation_xyz(0.2, 0.4, -0.6),
                   translation_mm=[100.0, -50.0, 250.0])
        pts = rng.uniform(-500, 500, size=(50, 3))
        np.testing.assert_allclose(
            cam.world_to_camera(cam.camera_to_world(pts)), pts, atol=1e-9)

    def test_camera_origin_maps_to_translation(self):
        cam = _cam(rotation=_rotation_xyz(0.1, 0.0, 0.5),
                   translation_mm=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(cam.camera_to_world(np.zeros(3)),
                                   [1.0, 2.0, 3.0])
        np.testing.assert_allclose(cam.position_world, [1.0, 2.0, 3.0])

    def test_up_in_camera_identity_extrinsic(self):
        cam = _cam()
        np.testing.assert_allclose(cam.up_in_camera, WORLD_UP)

    def test_rotate_to_world_ignores_translation(self):
        cam = _cam(rotation=_rotation_xyz(0.0, 0.0, np.pi / 2),
                   translation_mm=[500.0, 0.0, 0.0])
        # Rz(90deg) maps camera x to world y.
        np.testing.assert_allclose(cam.rotate_to_world([1.0, 0.0, 0.0]),
                                   [0.0, 1.0, 0.0], atol=1e-12)


class TestLookAt:
    def test_optical_axis_points_at_target(self):
        cam = CameraModel.look_at([0.0, -500.0, 0.0], [0.0, 0.0, 0.0])
        fwd = cam.rotate_to_world([0.0, 0.0, 1.0])
        np.testing.assert_allclose(fwd, [0.0, 1.0, 0.0], atol=1e-12)

    def test_target_projects_to_principal_point(self):
        cam = CameraModel.look_at([100.0, -400.0, 50.0], [20.0, 30.0, -10.0])
        uv = cam.project(cam.world_to_camera(np.array([20.0, 30.0, -10.0])))
        np.testing.assert_allclose(uv, [cam.cx, cam.cy], atol=1e-9)

    def test_image_x_is_horizontal(self):
        cam = CameraModel.look_at([50.0, -300.0, 100.0], [0.0, 0.0, 0.0])
        xw = cam.rotate_to_world([1.0, 0.0, 0.0])
        assert abs(xw[2]) < 1e-12

    def test_vertical_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            CameraModel.look_at([0.0, 0.0, 500.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("distance", [1e154, 1e200, 1e308])
    @pytest.mark.parametrize("target", [[0.0, 0.0, 0.0], [5.0, -3.0, 700.0]])
    def test_far_eye_gives_a_camera_without_warning(self, distance, target):
        # A sum of squares of the offset overflows past ~1e154 mm.
        eye = np.array(target) + distance * np.array([0.6, -0.8, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cam = CameraModel.look_at(eye, target)
        assert np.all(np.isfinite(cam.rotation))
        np.testing.assert_allclose(cam.rotate_to_world([0.0, 0.0, 1.0]),
                                   [-0.6, 0.8, 0.0], atol=1e-12)

    @pytest.mark.parametrize("eye, target", [
        ([-1e308, -1e308, 0.0], [1e308, 1e308, 0.0]),  # offset overflows
        ([np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]),          # coincide
    ])
    def test_unusable_eye_rejected_without_warning(self, eye, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                CameraModel.look_at(eye, target)

    def test_direction_bits_match_the_plain_quotient(self):
        # The power-of-two scaling is exact: forward / |forward| unchanged.
        rng = np.random.default_rng(8)
        for _ in range(200):
            eye = rng.normal(size=3) * rng.uniform(1.0, 2000.0)
            target = rng.normal(size=3) * 100.0
            forward = target - eye
            cam = CameraModel.look_at(eye, target)
            assert cam.rotation[:, 2].tobytes() == \
                (forward / np.linalg.norm(forward)).tobytes()


class TestSerialization:
    def test_json_round_trip(self):
        cam = _cam(fx=570.0, fy=571.5, cx=319.5, cy=239.5,
                   rotation=_rotation_xyz(0.3, -0.1, 0.9),
                   translation_mm=[12.0, -34.0, 910.0])
        loaded = CameraModel.from_dict(json.loads(json.dumps(cam.to_dict())))
        assert loaded.fx == cam.fx and loaded.fy == cam.fy
        assert loaded.width == cam.width and loaded.height == cam.height
        np.testing.assert_allclose(loaded.rotation, cam.rotation)
        np.testing.assert_allclose(loaded.translation_mm, cam.translation_mm)

    def test_dict_schema(self):
        d = _cam().to_dict()
        assert set(d) == {"fx", "fy", "cx", "cy", "width", "height",
                          "extrinsic"}
        assert len(d["extrinsic"]["rotation_rowmajor"]) == 9
        assert len(d["extrinsic"]["translation_mm"]) == 3
