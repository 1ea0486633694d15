"""Tests for the synthetic udder scene generator.

The renderer casts rays against analytic surfaces, so noiseless points must
lie exactly on the scene geometry and the oracle masks must match the
per-pixel label image bit for bit. Noise injection is verified statistically
against paired noiseless renders of the same scene.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import teatpose.scene as tp_scene
from _lattice import unit_steps
from teatpose.camera import CameraModel
from teatpose.cloud import FRAME_CAMERA, PointCloud
from teatpose.contour import clean_region
from teatpose.errors import (CurveFitError, InsufficientPointsError,
                             InvalidInputError, InvalidSceneError)
from teatpose.mask import TeatMask, rasterize_mask
from teatpose.pipeline import (estimate_frame, run_pipeline,
                               static_scene_stream)
from teatpose.pose import PoseConfig
from teatpose.scene import (MAX_CAMERA_DISTANCE_MM, NoiseModel, SceneSpec,
                            TeatSpec, _cast_scene,
                            _pixel_dirs, _rays_in_box, default_scene,
                            fit_error_curve, occlude, orbbec_like_noise,
                            plane_target_measure, render, render_plane_target,
                            sample_teat_surface)

_UDDER_CENTER = np.array([0.0, 0.0, 650.0])
_UDDER_SEMI = np.array([170.0, 130.0, 100.0])


def _surface_distance(teat, p):
    """Distance from points to the teat surface (wall + tip cap)."""
    w = p - teat.base_mm
    t = w @ teat.axis
    h = teat.length_mm - teat.radius_mm
    radial = np.linalg.norm(w - np.outer(t, teat.axis), axis=1)
    d_wall = np.abs(radial - teat.radius_mm)
    d_wall = np.where((t >= -1e-9) & (t <= h + 1e-9), d_wall, np.inf)
    d_cap = np.abs(np.linalg.norm(p - teat.cap_center_mm, axis=1)
                   - teat.radius_mm)
    return np.minimum(d_wall, d_cap)


def _single_teat_scene(noise=None, seed=0):
    teat = TeatSpec(base_mm=np.array([0.0, 0.0, 562.0]),
                    axis=np.array([0.08, -0.04, -1.0]))
    camera = CameraModel.look_at((0.0, -585.0, 430.0), teat.tip_mm)
    return SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                     udder_semi_axes_mm=_UDDER_SEMI, camera=camera,
                     noise=noise or NoiseModel(), seed=seed)


def _moved_camera(scene, standoff, aim_mm=(0.0, 0.0, 0.0)):
    """The scene seen from standoff times its camera's distance to the mean
    tip, aimed aim_mm away from that tip."""
    target = np.stack([t.tip_mm for t in scene.teats]).mean(axis=0)
    camera = CameraModel.look_at(
        target + standoff * (scene.camera.position_world - target),
        target + np.asarray(aim_mm))
    return replace(scene, camera=camera)


def _border_scene():
    """Default rig at 0.6x standoff, aimed so teat T1 is cut by the image
    border."""
    return _moved_camera(default_scene(seed=3, noise=orbbec_like_noise()),
                         0.6, (150.0, 0.0, 0.0))


def _full_image_cast(scene):
    """Label image and visible pixel counts of a cast of every pixel against
    every surface: no surface boxes, no window."""
    cam = scene.camera
    uu, vv = np.meshgrid(np.arange(cam.width) + 0.5,
                         np.arange(cam.height) + 0.5)
    dirs = _pixel_dirs(cam, np.column_stack([uu.ravel(), vv.ravel()]))
    _, label = _cast_scene(scene, dirs @ cam.rotation.T, cam.position_world)
    visible = np.bincount(label + 1, minlength=len(scene.teats) + 2)[2:]
    return label.reshape(cam.height, cam.width), tuple(visible.tolist())


def _surface_rects(scene) -> list:
    """Image rectangles (v0, v1, u0, u1) of the udder's silhouette and of
    each teat's world bounding box."""
    rects = [_rays_in_box(scene.camera,
                          scene.udder_center_mm - scene.udder_semi_axes_mm,
                          scene.udder_center_mm + scene.udder_semi_axes_mm,
                          ellipsoid=True)]
    for t in scene.teats:
        ends = np.stack([t.base_mm, t.tip_mm])
        rects.append(_rays_in_box(scene.camera,
                                  ends.min(axis=0) - t.radius_mm,
                                  ends.max(axis=0) + t.radius_mm))
    return rects


def _teat_off_image_scene():
    """Default rig at 0.6x standoff aimed 250 mm to the side: the image
    rectangles of T1 and T3 lie wholly outside the image."""
    return _moved_camera(default_scene(seed=6), 0.6, (250.0, 0.0, 0.0))


def _nothing_in_view_scene():
    """Default rig aimed 250 mm below its tips: every surface is in front of
    the camera and off the image, so no rectangle and no window is left."""
    return _moved_camera(default_scene(seed=6), 0.6, (0.0, 0.0, -250.0))


def _facing_away_scene():
    """Default rig seen by a camera turned away from it: every surface
    reaches behind the camera, so every rectangle is the whole image."""
    scene = default_scene(seed=6)
    pos = scene.camera.position_world
    return replace(scene, camera=CameraModel.look_at(
        pos, pos + np.array([0.0, -1000.0, 0.0])))


def _render_digest(scene) -> str:
    """sha256 of a render: cloud points, label image, visible pixel
    counts, and each mask's teat id and contour, dtypes included."""
    cloud, masks, gt = render(scene)
    h = hashlib.sha256()
    for a in (cloud.points, gt.labels,
              np.array(gt.visible_px, dtype=np.int64)):
        h.update(a.dtype.str.encode() + a.tobytes())
    for m in masks:
        h.update(m.teat_id.encode() + m.contour.dtype.str.encode()
                 + m.contour.tobytes())
    return h.hexdigest()


def _corners(contour) -> list:
    """Turning vertices of a unit-step lattice contour, which fix it."""
    step = np.roll(contour, -1, axis=0) - contour
    assert np.all(np.abs(step).sum(axis=1) == 1)
    turn = np.any(step != np.roll(step, 1, axis=0), axis=1)
    return [tuple(v) for v in contour[turn].tolist()]


class TestTeatSpec:

    def test_zero_axis_rejected(self):
        with pytest.raises(InvalidSceneError):
            TeatSpec(base_mm=np.zeros(3), axis=np.zeros(3))

    def test_length_must_exceed_radius(self):
        with pytest.raises(InvalidSceneError):
            TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
                     length_mm=10.0, radius_mm=14.0)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(InvalidSceneError):
            TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
                     radius_mm=0.0)
        with pytest.raises(InvalidInputError, match="length_mm"):
            TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
                     length_mm=float("nan"))

    @pytest.mark.parametrize("key", ["length_mm", "radius_mm"])
    def test_infinite_dimensions_rejected(self, key):
        # An infinite length made render warn in a multiply.
        with pytest.raises(InvalidSceneError, match=key):
            TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]),
                     **{key: float("inf")})

    def test_removed_tip_shape_key_rejected(self):
        # Scene files once carried the only legal tip shape.
        d = TeatSpec(base_mm=np.zeros(3),
                     axis=np.array([0.0, 0.0, 1.0])).to_dict()
        with pytest.raises(InvalidInputError, match="tip_shape"):
            TeatSpec.from_dict(dict(d, tip_shape="hemisphere"))

    def test_axis_normalized_and_tip_placement(self):
        teat = TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, -2.0]),
                        length_mm=50.0, radius_mm=14.0)
        np.testing.assert_allclose(teat.axis, [0.0, 0.0, -1.0])
        np.testing.assert_allclose(teat.tip_mm, [0.0, 0.0, -50.0])
        np.testing.assert_allclose(teat.cap_center_mm, [0.0, 0.0, -36.0])

    def test_contains(self):
        teat = TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, -1.0]))
        assert teat.contains(np.array([0.0, 0.0, -20.0]))
        assert teat.contains(teat.tip_mm)
        assert not teat.contains(np.array([20.0, 0.0, -20.0]))

    def test_json_round_trip(self):
        teat = TeatSpec(base_mm=np.array([1.0, 2.0, 3.0]),
                        axis=np.array([0.0, 1.0, 0.0]),
                        length_mm=44.0, radius_mm=11.0)
        back = TeatSpec.from_dict(teat.to_dict())
        np.testing.assert_array_equal(back.base_mm, teat.base_mm)
        np.testing.assert_array_equal(back.axis, teat.axis)
        assert back.length_mm == teat.length_mm
        assert back.radius_mm == teat.radius_mm


class TestNoiseModel:

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(a_mm=-0.1)
        with pytest.raises(InvalidInputError):
            NoiseModel(b_mm_per_m2=-1.0)
        for field in ("a_mm", "lateral_jitter_px"):
            with pytest.raises(InvalidInputError, match=field):
                NoiseModel(**{field: float("nan")})

    @pytest.mark.parametrize("key", ["a_mm", "b_mm_per_m2",
                                     "lateral_jitter_px"])
    def test_infinite_coefficients_rejected(self, key):
        # render used to warn, or fail on a non-finite cloud.
        with pytest.raises(InvalidInputError, match=key):
            NoiseModel(**{key: float("inf")})

    def test_dropout_range(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(dropout_rate=1.0)

    def test_sigma_is_quadratic_in_distance(self):
        noise = NoiseModel(a_mm=0.5, b_mm_per_m2=2.0)
        assert noise.sigma_mm(1000.0) == 2.5
        assert noise.sigma_mm(500.0) == 0.5 + 2.0 * 0.25
        np.testing.assert_allclose(noise.sigma_mm(np.array([0.0, 2000.0])),
                                   [0.5, 8.5])

    def test_depth_camera_preset_anchor(self):
        noise = orbbec_like_noise()
        assert noise.sigma_mm(1000.0) == pytest.approx(3.0)
        assert noise.a_mm == pytest.approx(0.2)

    def test_json_round_trip(self):
        noise = NoiseModel(a_mm=0.3, b_mm_per_m2=2.1, dropout_rate=0.05,
                           lateral_jitter_px=0.4)
        assert NoiseModel.from_dict(noise.to_dict()) == noise


class TestSceneSpec:

    def test_teat_count_bounds(self):
        with pytest.raises(InvalidSceneError):
            default_scene(n_teats=0)
        with pytest.raises(InvalidSceneError):
            default_scene(n_teats=7)

    @pytest.mark.parametrize("n_teats", [2.5, True, 4.0])
    def test_teat_count_must_be_an_integer(self, n_teats):
        # 2.5 raised a bare TypeError, and True built a 1-teat rig.
        with pytest.raises(InvalidSceneError, match="teat count"):
            default_scene(n_teats=n_teats)

    def test_detached_base_rejected(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 900.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        with pytest.raises(InvalidSceneError):
            SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                      udder_semi_axes_mm=_UDDER_SEMI,
                      camera=CameraModel.look_at((0.0, -585.0, 430.0),
                                                 (0.0, 0.0, 500.0)))

    def test_buried_tip_rejected(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 600.0]),
                        axis=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InvalidSceneError):
            SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                      udder_semi_axes_mm=_UDDER_SEMI,
                      camera=CameraModel.look_at((0.0, -585.0, 430.0),
                                                 (0.0, 0.0, 500.0)))

    def test_interpenetrating_teats_rejected(self):
        teats = (TeatSpec(base_mm=np.array([0.0, 0.0, 562.0]),
                          axis=np.array([0.0, 0.0, -1.0])),
                 TeatSpec(base_mm=np.array([10.0, 0.0, 562.0]),
                          axis=np.array([0.0, 0.0, -1.0])))
        with pytest.raises(InvalidSceneError):
            SceneSpec(teats=teats, udder_center_mm=_UDDER_CENTER,
                      udder_semi_axes_mm=_UDDER_SEMI,
                      camera=CameraModel.look_at((0.0, -585.0, 430.0),
                                                 (0.0, 0.0, 500.0)))

    def test_camera_inside_udder_rejected(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 562.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        with pytest.raises(InvalidSceneError):
            SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                      udder_semi_axes_mm=_UDDER_SEMI,
                      camera=CameraModel.look_at(_UDDER_CENTER + 10.0,
                                                 (0.0, 0.0, 0.0)))

    # A camera ~1e150 mm off passed SceneSpec and overflowed in render.
    @pytest.mark.parametrize("distance", [MAX_CAMERA_DISTANCE_MM * 1.001,
                                          1e150, 1e300])
    def test_camera_beyond_distance_bound_rejected(self, distance):
        scene = _single_teat_scene()
        camera = replace(scene.camera, translation_mm=distance
                         * np.array([0.3, -0.5, -0.8]) / np.sqrt(0.98))
        with pytest.raises(InvalidSceneError, match="camera is over"):
            replace(scene, camera=camera)

    def test_render_clean_at_distance_bound(self):
        # Tier-1 turns every RuntimeWarning into an error.
        direction = np.array([0.3, -0.5, -0.8]) / np.sqrt(0.98)
        scene = replace(_single_teat_scene(), camera=CameraModel.look_at(
            _UDDER_CENTER + MAX_CAMERA_DISTANCE_MM * 0.999999 * direction,
            _UDDER_CENTER))
        cloud, masks, _ = render(scene)
        assert len(cloud) == len(masks) == 0

    def test_inside_udder_check_cannot_overflow(self):
        # ((pos - c) / s) ** 2 overflowed for a 1e-160 mm udder; the scaled
        # check finds the camera outside.
        teat = TeatSpec(base_mm=_UDDER_CENTER, axis=np.array([0.0, 0.0, -1.0]))
        scene = SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                          udder_semi_axes_mm=np.full(3, 1e-160),
                          camera=CameraModel.look_at((0.0, -585.0, 430.0),
                                                     teat.tip_mm))
        assert scene.udder_semi_axes_mm[0] == 1e-160

    def test_json_round_trip(self):
        scene = default_scene(seed=7, noise=orbbec_like_noise())
        back = SceneSpec.from_dict(json.loads(json.dumps(scene.to_dict())))
        assert back.to_dict() == scene.to_dict()
        assert back.seed == 7

    # render would fail later with numpy's bare "expected non-negative
    # integer", and True would render as seed 1.
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(InvalidSceneError, match="seed must be an integer"):
            replace(default_scene(), seed=seed)

    @pytest.mark.parametrize("seed, error", [
        (-1, "seed must be an integer >= 0"),
        (2.5, "key 'seed' must be an integer"),
        (True, "key 'seed' must be an integer")],
        ids=["negative", "float", "bool"])
    def test_json_seed_must_be_non_negative_integer(self, seed, error):
        d = default_scene().to_dict()
        d["seed"] = seed
        with pytest.raises(InvalidInputError, match=error):
            SceneSpec.from_dict(d)

    def test_numpy_integer_seed_accepted(self):
        assert replace(default_scene(), seed=np.int64(5)).to_dict()["seed"] == 5


class TestRender:

    def test_noiseless_points_on_analytic_surfaces(self):
        scene = _single_teat_scene()
        cloud, masks, gt = render(scene)
        world = scene.camera.camera_to_world(cloud.points)
        # A point is the teat's if it lies on the analytic teat surface;
        # every other point must then lie on the udder ellipsoid.
        on_teat = _surface_distance(scene.teats[0], world) < 1e-6
        assert on_teat.sum() > 500
        udder = world[~on_teat]
        q = np.sum(((udder - scene.udder_center_mm)
                    / scene.udder_semi_axes_mm) ** 2, axis=1)
        np.testing.assert_allclose(q, 1.0, atol=1e-9)

    def test_oracle_masks_match_label_image(self):
        scene = default_scene(seed=3)
        _, masks, gt = render(scene)
        assert len(masks) == len(scene.teats)
        by_id = {m.teat_id: m for m in masks}
        for i in range(len(scene.teats)):
            region = gt.labels == i + 1
            # smooth blobs survive cleaning unchanged
            np.testing.assert_array_equal(clean_region(region), region)
            raster = rasterize_mask(by_id[f"T{i + 1}"], 640, 480)
            np.testing.assert_array_equal(raster, region)
            assert gt.visible_px[i] == int(region.sum())

    def test_ground_truth_matches_scene(self):
        scene = default_scene(seed=1)
        _, _, gt = render(scene)
        for i, teat in enumerate(scene.teats):
            np.testing.assert_array_equal(gt.tips_mm[i], teat.tip_mm)
            np.testing.assert_array_equal(gt.axes[i], -teat.axis)
        assert gt.teat_ids == ("T1", "T2", "T3", "T4")

    def test_depth_noise_sigma(self):
        # identical scenes with and without noise hit the same pixels, so the
        # per-point depth deltas sample the injected Gaussian directly
        clean, _, _ = render(default_scene(seed=5))
        noisy, _, _ = render(default_scene(seed=5, noise=NoiseModel(a_mm=2.0)))
        assert len(clean) == len(noisy)
        delta = noisy.points[:, 2] - clean.points[:, 2]
        assert len(delta) > 10_000
        assert abs(delta.std() - 2.0) < 0.2
        assert abs(delta.mean()) < 0.1

    def test_dropout_removes_points(self):
        full, _, _ = render(default_scene(seed=5))
        kept, _, _ = render(default_scene(
            seed=5, noise=NoiseModel(dropout_rate=0.3)))
        ratio = len(kept) / len(full)
        assert 0.65 < ratio < 0.75

    def test_reproducible_bit_for_bit(self):
        scene = default_scene(seed=11, noise=orbbec_like_noise())
        cloud_a, masks_a, gt_a = render(scene)
        cloud_b, masks_b, gt_b = render(scene)
        np.testing.assert_array_equal(cloud_a.points, cloud_b.points)
        assert len(masks_a) == len(masks_b)
        for ma, mb in zip(masks_a, masks_b):
            np.testing.assert_array_equal(ma.contour, mb.contour)
        np.testing.assert_array_equal(gt_a.labels, gt_b.labels)

    def test_hidden_teats_yield_no_masks(self):
        teat = TeatSpec(base_mm=np.array([0.0, 0.0, 562.0]),
                        axis=np.array([0.0, 0.0, -1.0]))
        camera = CameraModel.look_at((100.0, -150.0, 1400.0), _UDDER_CENTER)
        scene = SceneSpec(teats=(teat,), udder_center_mm=_UDDER_CENTER,
                          udder_semi_axes_mm=_UDDER_SEMI, camera=camera)
        cloud, masks, gt = render(scene)
        assert masks == []
        assert gt.visible_px == (0,)
        assert len(cloud) > 0

    # Tier-1 makes only RuntimeWarning an error; these make every warning one.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_depth_noise_rejected(self):
        # eps * sigma overflows at sigma = 1e308 mm; it used to leak a
        # RuntimeWarning instead of failing the cloud's finiteness check.
        scene = replace(default_scene(), noise=NoiseModel(a_mm=1e308))
        with pytest.raises(InvalidInputError, match="non-finite"):
            render(scene)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_jitter_misses_every_ray(self):
        # Every jittered ray overflows and hits nothing, so every point is
        # dropped as a miss; the masks do not depend on the noise.
        scene = replace(default_scene(),
                        noise=NoiseModel(lateral_jitter_px=1e300))
        cloud, masks, _ = render(scene)
        assert len(cloud) == 0
        assert len(masks) == len(scene.teats)


# The scenes whose render and frame poses are pinned by literal digests.
_PINNED_SCENES = {
    "default_orbbec": lambda: default_scene(seed=0, noise=orbbec_like_noise()),
    "six_teats_close": lambda: _moved_camera(default_scene(
        seed=1, noise=orbbec_like_noise(), n_teats=6), 0.6),
    "dropout_jitter": lambda: default_scene(seed=2, noise=NoiseModel(
        dropout_rate=0.1, lateral_jitter_px=0.7)),
    "teat_on_border": _border_scene,
}


_RENDER_DIGESTS = {
    "default_orbbec":
        "84abcc3b40f235cb831222cd999480da8a92976c25005db3347ce2b7e96e2f71",
    "six_teats_close":
        "cd1c4e94294f4c38414ba1378ddad7e17360eb3d8d454c7a4e68b763ed4b8b17",
    "dropout_jitter":
        "01122a13c539fe13cf5611e41b2d2ee3e681df24eea9a86190d3d1a82380a256",
    "teat_on_border":
        "236775438ddc8bf4883e71a0d0bb0c5d5e843f79d5d0349886a02331624e2013",
}


class TestRenderDigest:
    """Render output pinned byte for byte by literal digests."""

    @pytest.mark.parametrize("name", list(_RENDER_DIGESTS))
    def test_digest(self, name):
        assert _render_digest(_PINNED_SCENES[name]()) == _RENDER_DIGESTS[name]

    def test_border_scene_cuts_a_teat(self):
        _, masks, _ = render(_border_scene())
        c = {m.teat_id: m.contour for m in masks}["T1"]
        assert np.any((c[:, 0] == 0) | (c[:, 0] == 640)
                      | (c[:, 1] == 0) | (c[:, 1] == 480))


@pytest.fixture
def casts(monkeypatch):
    """Start with no kept geometry; list each `_cast_scene` call as
    "geometry" (the window cast, with surface boxes) or "jitter"."""
    monkeypatch.setattr(tp_scene, "_last_geometry", None)
    calls = []

    def spy(scene, dirs_world, origin, boxes=None):
        calls.append("jitter" if boxes is None else "geometry")
        return _cast_scene(scene, dirs_world, origin, boxes)

    monkeypatch.setattr(tp_scene, "_cast_scene", spy)
    return calls


def _next_up(x):
    """The next representable value above x, of x's own type; for an
    array, with only its first entry moved."""
    if isinstance(x, np.ndarray):
        y = x.copy()
        y.flat[0] = np.nextafter(y.flat[0], np.inf)
        return y
    return x + 1 if isinstance(x, int) else type(x)(np.nextafter(x, np.inf))


def _moved_field(scene, field):
    """The scene with one geometry input moved by the least step."""
    cam = scene.camera
    if field in ("fx", "fy", "cx", "cy", "width", "height", "rotation",
                 "translation_mm"):
        return replace(scene, camera=replace(
            cam, **{field: _next_up(getattr(cam, field))}))
    if field in ("udder_center_mm", "udder_semi_axes_mm"):
        return replace(scene, **{field: _next_up(getattr(scene, field))})
    if field == "teat_count":
        return replace(scene, teats=scene.teats[:-1])
    last = scene.teats[-1]
    teat = replace(last, **{field: _next_up(getattr(last, field))})
    return replace(scene, teats=scene.teats[:-1] + (teat,))


class TestGeometryReuse:
    """render keeps the last geometry pass and reuses it only for a scene
    with the same camera, udder and teats, byte for byte."""

    @pytest.mark.parametrize("stream, n_rendered, n_casts", [
        (lambda a, b: static_scene_stream(a, 40), 8, 1),
        (lambda a, b: [a] * 40 + [b] * 40, 15, 2),
    ], ids=["static_session", "two_scenes"])
    def test_one_cast_per_geometry(self, casts, stream, n_rendered, n_casts):
        scene = default_scene(seed=4, noise=orbbec_like_noise())
        result = run_pipeline(stream(scene, _moved_camera(scene, 0.9)))
        rendered = [e for e in result.events if e["event"] == "frame_accepted"]
        assert len(rendered) == n_rendered
        assert casts == ["geometry"] * n_casts

    @pytest.mark.parametrize("field", [
        "fx", "fy", "cx", "cy", "width", "height", "rotation",
        "translation_mm", "udder_center_mm", "udder_semi_axes_mm",
        "base_mm", "axis", "length_mm", "radius_mm", "teat_count"])
    def test_any_geometry_field_forces_a_recast(self, casts, field):
        scene = default_scene(seed=4, noise=orbbec_like_noise())
        moved = _moved_field(scene, field)
        assert tp_scene._geometry_key(moved) != tp_scene._geometry_key(scene)
        render(scene)
        _, _, gt = render(moved)
        assert casts == ["geometry"] * 2
        _, _, gt_fresh = render(moved)
        assert casts == ["geometry"] * 2
        np.testing.assert_array_equal(gt.labels, gt_fresh.labels)

    @pytest.mark.parametrize("change", [
        {"seed": 5}, {"noise": NoiseModel(a_mm=1.0, dropout_rate=0.2)},
        {"stamp_us": 123}], ids=["seed", "noise", "stamp_us"])
    def test_noise_seed_and_stamp_reuse_the_cast(self, casts, change):
        scene = default_scene(seed=4, noise=orbbec_like_noise())
        stamp_us = change.pop("stamp_us", 0)
        render(scene)
        _, masks, _ = render(replace(scene, **change), stamp_us=stamp_us)
        assert casts == ["geometry"]
        assert len(masks) == 4
        assert all(m.stamp_us == stamp_us for m in masks)

    @pytest.mark.parametrize("before", ["cold", "itself_reseeded", "other"])
    @pytest.mark.parametrize("name", list(_RENDER_DIGESTS))
    def test_cold_equals_warm(self, casts, name, before):
        scene = _PINNED_SCENES[name]()
        if before == "itself_reseeded":
            render(replace(scene, seed=scene.seed + 1))
        elif before == "other":
            names = list(_PINNED_SCENES)
            render(_PINNED_SCENES[names[names.index(name) - 1]]())
        assert _render_digest(scene) == _RENDER_DIGESTS[name]
        assert casts.count("geometry") == (2 if before == "other" else 1)

    def test_jittered_rays_recast_every_frame(self, casts):
        scene = _PINNED_SCENES["dropout_jitter"]()
        clouds = [render(s)[0] for s in static_scene_stream(scene, 4)]
        assert casts == ["geometry", "jitter", "jitter", "jitter", "jitter"]
        assert len({c.points.tobytes() for c in clouds}) == 4

    def test_outputs_stay_the_callers(self, casts):
        scene = _PINNED_SCENES["default_orbbec"]()
        cloud, masks, gt = render(scene)
        for a in (cloud.points, *(m.contour for m in masks)):
            a.flags.writeable = True
            a[:] = 0
        for a in (gt.labels, gt.tips_mm, gt.axes):
            a[:] = 7
        assert _render_digest(scene) == _RENDER_DIGESTS["default_orbbec"]
        assert casts == ["geometry"]


class TestFrameDigest:
    """The frame path's poses on the pinned scenes, pinned by literal
    digests: tip rounded to 1e-6 mm, axis to 1e-9, supporting point count,
    and the failure list."""

    @pytest.mark.parametrize("name, n_poses, digest", [
        ("default_orbbec", 4,
         "d5b322b9a50b48a54d2eb7e21a8ba634368e4034deb1306dcde69fa73fddcfb7"),
        ("six_teats_close", 6,
         "2dbe39ee087b61f1c28df2d95628a33b93ac9d87da277bed72395e128cd0320e"),
        ("dropout_jitter", 4,
         "39c2c675b01b1a60b9411aff633ea3496285eda3e08ee093bdf6e809446e645e"),
        ("teat_on_border", 3,
         "0e2271a00379d099b271ed1acfc033052209ac4f1379263aac2c69b8a96cf5cf"),
    ], ids=["default_orbbec", "six_teats_close", "dropout_jitter",
            "teat_on_border"])
    def test_digest(self, name, n_poses, digest):
        scene = _PINNED_SCENES[name]()
        # perfbench's frame-close workload runs the close rig at a 2 mm leaf.
        config = PoseConfig(voxel_leaf_mm=2.0 if name == "six_teats_close"
                            else 5.0)
        cloud, masks, _ = render(scene)
        poses, failures = estimate_frame(cloud, masks, scene.camera, config)
        assert (len(poses), failures) == (n_poses, [])
        record = [[p.teat_id, np.round(p.tip_mm, 6).tolist(),
                   np.round(p.axis, 9).tolist(), p.n_points] for p in poses]
        text = json.dumps([record, failures])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRenderWindow:
    """render casts rays only inside the window that the surfaces' image
    rectangles span; a full-image cast without boxes is the oracle."""

    @pytest.mark.parametrize("make", [
        default_scene,
        lambda: _moved_camera(default_scene(seed=1, n_teats=6), 0.6),
        _border_scene,
        lambda: default_scene(seed=2, noise=NoiseModel(
            dropout_rate=0.1, lateral_jitter_px=0.7)),
        _teat_off_image_scene,
        _nothing_in_view_scene,
        _facing_away_scene,
    ], ids=["default", "six_teats_close", "teat_on_border", "dropout_jitter",
            "teat_off_image", "nothing_in_view", "facing_away"])
    def test_labels_match_full_image_cast(self, make):
        scene = make()
        _, _, gt = render(scene)
        labels, visible = _full_image_cast(scene)
        assert gt.labels.dtype == labels.dtype
        np.testing.assert_array_equal(gt.labels, labels)
        assert gt.visible_px == visible

    def test_teat_off_image_is_skipped(self):
        scene = _teat_off_image_scene()
        empty = [v0 >= v1 or u0 >= u1
                 for v0, v1, u0, u1 in _surface_rects(scene)]
        assert empty == [False, True, False, True, False]
        _, masks, gt = render(scene)
        assert gt.visible_px[0] == gt.visible_px[2] == 0
        assert [m.teat_id for m in masks] == ["T2", "T4"]

    @pytest.mark.parametrize("make, rect", [
        (_nothing_in_view_scene, None), (_facing_away_scene, (0, 480, 0, 640)),
    ], ids=["empty_window", "full_window"])
    def test_nothing_in_view_renders_empty(self, make, rect):
        scene = make()
        for v0, v1, u0, u1 in _surface_rects(scene):
            if rect is None:
                assert v0 >= v1 or u0 >= u1
            else:
                assert (v0, v1, u0, u1) == rect
        cloud, masks, gt = render(scene)
        assert len(cloud) == 0
        assert masks == []
        assert gt.visible_px == (0, 0, 0, 0)
        assert gt.labels.shape == (480, 640) and np.all(gt.labels == -1)


class TestOcclude:

    @pytest.mark.parametrize("size", [(640.5, 480), (640, -1), (0, 480)],
                             ids=["float_width", "negative_height",
                                  "zero_width"])
    def test_bad_image_size_rejected(self, size):
        _, masks, _ = render(default_scene(seed=3))
        with pytest.raises(InvalidInputError, match="width|height"):
            occlude(masks, (0.0, 0.0, 10.0, 10.0), *size)

    def test_disjoint_occluder_keeps_masks(self):
        _, masks, _ = render(default_scene(seed=3))
        out = occlude(masks, (600.0, 460.0, 640.0, 480.0), 640, 480)
        assert len(out) == len(masks)
        for before, after in zip(masks, out):
            assert after.teat_id == before.teat_id
            np.testing.assert_array_equal(after.contour, before.contour)

    def test_full_cover_removes_mask(self):
        _, masks, _ = render(default_scene(seed=3))
        out = occlude(masks[:1], (0.0, 0.0, 640.0, 480.0), 640, 480)
        assert out == []

    def test_band_splits_mask(self):
        _, masks, _ = render(default_scene(seed=3))
        v = masks[0].contour[:, 1]
        v_mid = 0.5 * (float(v.min()) + float(v.max()))
        out = occlude(masks[:1], (0.0, v_mid - 2.0, 640.0, v_mid + 2.0),
                      640, 480)
        assert len(out) == 2
        assert all(m.teat_id == masks[0].teat_id for m in out)

    @pytest.mark.parametrize("contour, occluder, expected", [
        # A band splits the mask in two; the larger piece comes first.
        ([(2, 2), (2, 12), (26, 12), (26, 2)], (10.2, 0.0, 13.8, 16.0),
         [[(14, 2), (14, 12), (26, 12), (26, 2)],
          [(2, 2), (2, 12), (10, 12), (10, 2)]]),
        # The mask reaches the right and bottom image borders and the
        # occluder reaches past them.
        ([(18, 6), (18, 16), (30, 16), (30, 6)], (24.2, 11.2, 40.0, 40.0),
         [[(18, 6), (18, 16), (24, 16), (24, 11), (30, 11), (30, 6)]]),
        # An occluder strictly inside the mask: the hole is cut open up the
        # column above its top-left pixel, never filled back.
        ([(2, 2), (2, 12), (26, 12), (26, 2)], (10.2, 5.2, 13.8, 8.8),
         [[(2, 2), (2, 12), (26, 12), (26, 2), (11, 2), (11, 5), (14, 5),
           (14, 9), (10, 9), (10, 2)]]),
    ], ids=["split_in_two", "clipped_at_border", "interior"])
    def test_literal_contours(self, contour, occluder, expected):
        mask = TeatMask(teat_id="T2", stamp_us=5, contour=unit_steps(contour))
        out = occlude([mask], occluder, 30, 16)
        assert all(m.teat_id == "T2" and m.stamp_us == 5 for m in out)
        assert [_corners(m.contour) for m in out] == expected
        u0, v0, u1, v1 = occluder
        u, v = np.arange(30) + 0.5, np.arange(16) + 0.5
        covered = (((v >= v0) & (v <= v1))[:, None]
                   & ((u >= u0) & (u <= u1)))
        for m in out:
            assert not (rasterize_mask(m, 30, 16) & covered).any()

    @pytest.mark.parametrize("occluder", [
        (float("nan"),) * 4, (0.0, 0.0, float("inf"), 10.0),
        (300.0, 200.0, 100.0, 100.0), (0.0, 20.0, 10.0, 10.0)],
        ids=["nan", "infinite", "inverted_u", "inverted_v"])
    def test_bad_occluder_rejected(self, occluder):
        # These used to occlude nothing, silently.
        _, masks, _ = render(default_scene(seed=3))
        with pytest.raises(InvalidInputError, match="occluder_px"):
            occlude(masks, occluder, 640, 480)


class TestPlaneTarget:

    def test_noiseless_distance_exact(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = render_plane_target(800.0, camera, NoiseModel())
        assert plane_target_measure(cloud) == 800.0

    def test_systematic_offset_carries_through(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = render_plane_target(800.0, camera, NoiseModel(),
                                    systematic_offset_mm=2.5)
        assert plane_target_measure(cloud) == pytest.approx(802.5)

    def test_noisy_mean_converges(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        for distance in (500.0, 800.0, 1000.0):
            cloud = render_plane_target(distance, camera, NoiseModel(a_mm=1.0),
                                        seed=4)
            assert len(cloud) > 4000
            assert abs(plane_target_measure(cloud) - distance) < 0.1

    def test_nonpositive_distance_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        with pytest.raises(InvalidInputError):
            render_plane_target(0.0, camera, NoiseModel())

    @pytest.mark.parametrize("distance", [float("nan"), float("inf")])
    def test_nonfinite_distance_rejected(self, distance):
        # Before the check, NaN gave an empty cloud and inf a RuntimeWarning.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        with pytest.raises(InvalidInputError, match="distance_mm"):
            render_plane_target(distance, camera, NoiseModel())

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        with pytest.raises(InvalidInputError, match="seed"):
            render_plane_target(800.0, camera, NoiseModel(), seed=seed)

    def test_overflowing_sigma_rejected(self):
        # sigma(1e300 mm) overflows; it used to raise a RuntimeWarning.
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        with pytest.raises(InvalidInputError, match="sigma"):
            render_plane_target(1e300, camera, NoiseModel())

    def test_off_target_region_rejected(self):
        camera = CameraModel(570.0, 570.0, 320.0, 240.0)
        cloud = render_plane_target(800.0, camera, NoiseModel())
        off = PointCloud(cloud.points + [500.0, 0.0, 0.0], frame=FRAME_CAMERA)
        with pytest.raises(InsufficientPointsError):
            plane_target_measure(off)


class TestErrorCurve:

    def test_exact_quadratic_recovered(self):
        samples = [(d, 1.0 + 3.0 * (d / 1000.0) ** 2)
                   for d in (400.0, 500.0, 600.0, 800.0, 1000.0)]
        curve = fit_error_curve(samples)
        assert curve.a_mm == pytest.approx(1.0, abs=1e-9)
        assert curve.b_mm_per_m2 == pytest.approx(3.0, abs=1e-9)
        assert curve.max_error_at_1m_mm == pytest.approx(4.0, abs=1e-9)

    def test_zero_errors_give_zero_curve(self):
        curve = fit_error_curve([(400.0, 0.0), (600.0, 0.0), (800.0, 0.0)])
        assert curve.a_mm == 0.0
        assert curve.b_mm_per_m2 == 0.0

    def test_sign_of_error_ignored(self):
        curve_pos = fit_error_curve([(400.0, 1.0), (600.0, 2.0), (800.0, 3.0)])
        curve_neg = fit_error_curve([(400.0, -1.0), (600.0, -2.0),
                                     (800.0, -3.0)])
        assert curve_pos == curve_neg

    def test_too_few_distances_rejected(self):
        with pytest.raises(CurveFitError):
            fit_error_curve([(400.0, 1.0), (400.0, 1.1), (600.0, 2.0)])

    def test_overflowing_distances_rejected(self):
        # (1e200 mm)^2 overflows; it used to raise a RuntimeWarning.
        with pytest.raises(CurveFitError, match="overflow"):
            fit_error_curve([(1e200, 1.0), (2e200, 1.0), (3e200, 2.0)])

    # A NaN used to raise numpy's LinAlgError after LAPACK printed to
    # stderr; an infinite error returned an all-NaN curve.
    @pytest.mark.parametrize("sample", [(600.0, np.nan), (600.0, np.inf),
                                        (np.nan, 2.0), (-np.inf, 2.0)],
                             ids=["nan_error", "inf_error", "nan_distance",
                                  "inf_distance"])
    def test_non_finite_samples_rejected(self, sample, capfd):
        with pytest.raises(CurveFitError, match="finite"):
            fit_error_curve([(400.0, 1.0), sample, (800.0, 3.0),
                             (1000.0, 4.0)])
        assert capfd.readouterr().err == ""


class TestSampleTeatSurface:

    def test_points_lie_on_surface(self):
        rng = np.random.default_rng(9)
        teat = TeatSpec(base_mm=np.array([3.0, -2.0, 600.0]),
                        axis=np.array([0.1, 0.2, -1.0]))
        pts = sample_teat_surface(teat, 5000, rng)
        assert _surface_distance(teat, pts).max() < 1e-9

    def test_cap_fraction_matches_area_ratio(self):
        rng = np.random.default_rng(9)
        teat = TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, -1.0]))
        pts = sample_teat_surface(teat, 20000, rng)
        on_cap = np.linalg.norm(pts - teat.cap_center_mm, axis=1) \
            <= teat.radius_mm + 1e-9
        r, h = teat.radius_mm, teat.length_mm - teat.radius_mm
        expected = r / (r + h)  # cap area over total area
        assert abs(on_cap.mean() - expected) < 0.02

    def test_noise_spreads_points(self):
        rng = np.random.default_rng(9)
        teat = TeatSpec(base_mm=np.zeros(3), axis=np.array([0.0, 0.0, -1.0]))
        pts = sample_teat_surface(teat, 5000, rng, noise_mm=1.0)
        d = _surface_distance(teat, pts)
        assert d.max() > 0.5
        assert np.percentile(d, 99) < 5.0
