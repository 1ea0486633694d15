"""Parametric udder scenes: analytic ray casting, oracle masks, sensor noise.

Scene geometry lives in the world frame (z up, mm). A teat is a solid
cylinder capped by a hemisphere; the udder is an axis-aligned ellipsoid.
Rendering casts one ray per pixel center through the nearest analytic
surface, which keeps ground truth exact: no meshing, no discretization.
Rays are cast only inside the window, the image rectangle that holds the
image of every surface (a teat's bounding box, the udder's silhouette);
every pixel outside it is background by construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .camera import CameraModel
from .cloud import PointCloud
from .contour import clean_region, largest_component
from .errors import (CurveFitError, InsufficientPointsError, InvalidInputError,
                     InvalidSceneError, _check_bound, _check_keys,
                     _check_types, _check_vector, _dataclass_from_dict,
                     _is_int)
from .mask import TeatMask, rasterize_mask

# Read only by perfbench/spans.py HOOKS; the benchmark refresh drops it.
trace_boundary = None

MIN_MASK_PIXELS = 50
# Farthest camera from the udder centre that a scene accepts; render is
# tested there and overflows from ~1e150 mm.
MAX_CAMERA_DISTANCE_MM = 1e6


def _ellipsoid_level(p: np.ndarray, c: np.ndarray, s: np.ndarray) -> float:
    """sum(((p - c) / s) ** 2), or inf for a point more than 2 s off the
    centre along an axis, so that no far point or small s overflows."""
    with np.errstate(over="ignore"):
        q = np.abs(p - c)
    return np.inf if np.any(q / 2.0 > s) else float(np.sum((q / s) ** 2))


@dataclass(frozen=True)
class TeatSpec:
    """Solid teat: cylinder from the base plus a hemispherical tip cap.

    `length_mm` is the total base-to-apex length, so the cylindrical part
    spans length - radius and the apex sits at base + length * axis.
    """

    base_mm: np.ndarray
    axis: np.ndarray
    length_mm: float = 50.0
    radius_mm: float = 14.0

    def __post_init__(self):
        b = _check_vector(self.base_mm, 3, "teat", "base_mm")
        a = _check_vector(self.axis, 3, "teat", "axis")
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise InvalidSceneError("teat axis must be non-zero")
        a = a / n
        _check_bound(self, ("length_mm", "radius_mm"),
                     lambda v: 0 < v < math.inf, "finite and > 0",
                     InvalidSceneError)
        if self.length_mm <= self.radius_mm:
            raise InvalidSceneError(
                "teat length must exceed the tip radius (cylinder part > 0)")
        object.__setattr__(self, "base_mm", b)
        object.__setattr__(self, "axis", a)
        b.flags.writeable = False
        a.flags.writeable = False

    @property
    def tip_mm(self) -> np.ndarray:
        return self.base_mm + self.length_mm * self.axis

    @property
    def cap_center_mm(self) -> np.ndarray:
        return self.base_mm + (self.length_mm - self.radius_mm) * self.axis

    def contains(self, p: np.ndarray) -> bool:
        """True if the world point lies inside the solid."""
        w = np.asarray(p, dtype=float) - self.base_mm
        t = float(w @ self.axis)
        r = self.radius_mm
        h = self.length_mm - self.radius_mm
        if 0.0 <= t <= h and np.linalg.norm(w - t * self.axis) <= r:
            return True
        return bool(np.linalg.norm(np.asarray(p, dtype=float)
                                   - self.cap_center_mm) <= r)

    def to_dict(self) -> dict:
        return {"base_mm": self.base_mm.tolist(), "axis": self.axis.tolist(),
                "length_mm": self.length_mm, "radius_mm": self.radius_mm}

    @classmethod
    def from_dict(cls, d: dict) -> "TeatSpec":
        return _dataclass_from_dict(cls, d, "teat")


@dataclass(frozen=True)
class NoiseModel:
    """Distance-dependent depth noise: sigma(d) = a + b * d^2, d in meters.

    a and the result are mm; b is mm per square meter. Depth noise is applied
    along the ray. dropout_rate removes points uniformly; lateral_jitter_px
    perturbs the sampling ray sideways before the depth lookup.
    """

    a_mm: float = 0.0
    b_mm_per_m2: float = 0.0
    dropout_rate: float = 0.0
    lateral_jitter_px: float = 0.0

    def __post_init__(self):
        _check_bound(self, ("a_mm", "b_mm_per_m2", "lateral_jitter_px"),
                     lambda v: 0 <= v < math.inf, "finite and >= 0")
        _check_bound(self, ("dropout_rate",), lambda v: 0.0 <= v < 1.0,
                     "in [0, 1)")

    def sigma_mm(self, depth_mm) -> np.ndarray:
        d_m = np.asarray(depth_mm, dtype=float) / 1000.0
        return self.a_mm + self.b_mm_per_m2 * d_m ** 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return _dataclass_from_dict(cls, d, "noise")


def orbbec_like_noise() -> NoiseModel:
    """Configurable stand-in for a consumer depth camera.

    0.2 mm floor; the quadratic term is chosen so sigma(1 m) = 3 mm. The
    quadratic growth and the floor are published behavior; the 3 mm anchor is
    a tuned default, not a measured value.
    """
    return NoiseModel(a_mm=0.2, b_mm_per_m2=2.8)


@dataclass(frozen=True)
class SceneSpec:
    """Complete scene: teats, udder ellipsoid, camera, noise, RNG seed."""

    teats: tuple
    udder_center_mm: np.ndarray
    udder_semi_axes_mm: np.ndarray
    camera: CameraModel
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0

    def __post_init__(self):
        _check_bound(self, ("seed",), lambda v: _is_int(v) and v >= 0,
                     "an integer >= 0", InvalidSceneError)
        teats = tuple(self.teats)
        if not 1 <= len(teats) <= 6:
            raise InvalidSceneError(f"teat count must be 1..6, got {len(teats)}")
        c = _check_vector(self.udder_center_mm, 3, "udder", "center_mm")
        s = _check_vector(self.udder_semi_axes_mm, 3, "udder", "semi_axes_mm")
        if np.any(s <= 0):
            raise InvalidSceneError("udder semi-axes must be positive")
        object.__setattr__(self, "teats", teats)
        object.__setattr__(self, "udder_center_mm", c)
        object.__setattr__(self, "udder_semi_axes_mm", s)
        c.flags.writeable = False
        s.flags.writeable = False

        for i, t in enumerate(teats):
            if _ellipsoid_level(t.base_mm, c, s) > 1.0 + 1e-9:
                raise InvalidSceneError(f"teat {i} base detached from the udder")
            if _ellipsoid_level(t.tip_mm, c, s) <= 1.0:
                raise InvalidSceneError(f"teat {i} tip buried inside the udder")
        for i in range(len(teats)):
            for j in range(i + 1, len(teats)):
                gap = _segment_distance(
                    teats[i].base_mm, teats[i].tip_mm,
                    teats[j].base_mm, teats[j].tip_mm)
                if gap < teats[i].radius_mm + teats[j].radius_mm - 1e-9:
                    raise InvalidSceneError(f"teats {i} and {j} interpenetrate")

        pos = self.camera.position_world
        if not math.dist(pos, c) <= MAX_CAMERA_DISTANCE_MM:
            raise InvalidSceneError(
                f"camera is over {MAX_CAMERA_DISTANCE_MM:g} mm from the udder")
        if _ellipsoid_level(pos, c, s) <= 1.0:
            raise InvalidSceneError("camera is inside the udder")
        for i, t in enumerate(teats):
            if t.contains(pos):
                raise InvalidSceneError(f"camera is inside teat {i}")

    def to_dict(self) -> dict:
        return {
            "teats": [t.to_dict() for t in self.teats],
            "udder": {"center_mm": self.udder_center_mm.tolist(),
                      "semi_axes_mm": self.udder_semi_axes_mm.tolist()},
            "camera": self.camera.to_dict(),
            "noise": self.noise.to_dict(),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        _check_keys(d, "scene", ("teats", "udder", "camera", "noise", "seed"),
                    required=("teats", "udder", "camera"))
        _check_types(cls, d, "scene")
        if not isinstance(d["teats"], list):
            raise InvalidInputError(f"scene: key 'teats' must be a list of "
                                    f"teat objects, got {d['teats']!r}")
        udder_keys = ("center_mm", "semi_axes_mm")
        udder = _check_keys(d["udder"], "udder", udder_keys, udder_keys)
        return cls(
            teats=tuple(TeatSpec.from_dict(t) for t in d["teats"]),
            udder_center_mm=udder["center_mm"],
            udder_semi_axes_mm=udder["semi_axes_mm"],
            camera=CameraModel.from_dict(d["camera"]),
            noise=NoiseModel.from_dict(d.get("noise", {})),
            seed=d.get("seed", 0),
        )


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-teat answers for a rendered frame.

    axis points tip -> base (the orientation estimators must reproduce it).
    labels is the per-pixel id image: -1 background, 0 udder, i+1 for teat i.
    """

    teat_ids: tuple
    tips_mm: np.ndarray
    axes: np.ndarray
    visible_px: tuple
    labels: np.ndarray


def _segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between 3D segments [p1,p2] and [q1,q2]."""
    u = p2 - p1
    v = q2 - q1
    w = p1 - q1
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    den = a * c - b * b
    if den > 1e-12:
        s = np.clip((b * e - c * d) / den, 0.0, 1.0)
    else:
        s = 0.0
    t = (b * s + e) / c if c > 1e-12 else 0.0
    t = np.clip(t, 0.0, 1.0)
    # Re-clamp s against the clamped t (standard two-pass segment closest point).
    if a > 1e-12:
        s = np.clip((b * t - d) / a, 0.0, 1.0)
    return float(np.linalg.norm(w + s * u - t * v))


# -- ray casting ---------------------------------------------------------------


def _pixel_dirs(camera: CameraModel, pixels_uv: np.ndarray) -> np.ndarray:
    """Unnormalized camera-frame ray directions ((u-cx)/fx, (v-cy)/fy, 1).

    With these directions the ray parameter is the camera depth z itself.
    """
    d = np.empty((len(pixels_uv), 3))
    d[:, 0] = (pixels_uv[:, 0] - camera.cx) / camera.fx
    d[:, 1] = (pixels_uv[:, 1] - camera.cy) / camera.fy
    d[:, 2] = 1.0
    return d


def _ellipsoid_depths(o, dirs, center, semi) -> np.ndarray:
    q = (o - center) / semi
    e = dirs / semi
    aa = np.einsum("ni,ni->n", e, e)
    bb = np.einsum("ni,i->n", e, q)
    cc = q @ q - 1.0
    disc = bb * bb - aa * cc
    z = np.full(len(dirs), np.inf)
    ok = disc >= 0
    root = np.sqrt(disc[ok])
    z1 = (-bb[ok] - root) / aa[ok]
    z2 = (-bb[ok] + root) / aa[ok]
    cand = np.where(z1 > 0, z1, np.where(z2 > 0, z2, np.inf))
    z[ok] = cand
    return z


def _teat_depths(o, dirs, teat: TeatSpec) -> np.ndarray:
    """Nearest positive depth to a capped-cylinder teat, inf for misses."""
    a = teat.axis
    h = teat.length_mm - teat.radius_mm
    r = teat.radius_mm
    w = o - teat.base_mm
    z = np.full(len(dirs), np.inf)

    # Lateral cylinder surface within the axial span [0, h].
    da = dirs @ a
    wa = float(w @ a)
    dp = dirs - np.outer(da, a)
    wp = w - wa * a
    aa = np.einsum("ni,ni->n", dp, dp)
    bb = dp @ wp
    cc = float(wp @ wp) - r * r
    disc = bb * bb - aa * cc
    ok = (disc >= 0) & (aa > 1e-18)
    root = np.sqrt(np.where(ok, disc, 0.0))
    for sign in (-1.0, 1.0):
        zc = np.where(ok, (-bb + sign * root) / np.where(ok, aa, 1.0), np.inf)
        t_ax = wa + zc * da
        valid = ok & (zc > 0) & (t_ax >= 0.0) & (t_ax <= h)
        z = np.where(valid & (zc < z), zc, z)

    # Hemisphere cap: sphere at the cap center, far side of the cap plane.
    m = o - teat.cap_center_mm
    bbs = dirs @ m
    ccs = float(m @ m) - r * r
    aas = np.einsum("ni,ni->n", dirs, dirs)
    discs = bbs * bbs - aas * ccs
    oks = discs >= 0
    roots = np.sqrt(np.where(oks, discs, 0.0))
    for sign in (-1.0, 1.0):
        zc = np.where(oks, (-bbs + sign * roots) / aas, np.inf)
        side = (m @ a) + zc * da
        valid = oks & (zc > 0) & (side >= 0.0)
        z = np.where(valid & (zc < z), zc, z)

    # Base disc closes the solid at the udder end.
    den = da.copy()
    den[np.abs(den) < 1e-15] = np.nan
    zd = -wa / den
    hit = w + zd[:, None] * dirs - np.outer(zd * da + wa, a)
    lat2 = np.einsum("ni,ni->n", hit, hit)
    with np.errstate(invalid="ignore"):
        valid = np.isfinite(zd) & (zd > 0) & (lat2 <= r * r)
    z = np.where(valid & (zd < z), zd, z)
    return z


def _rays_in_box(camera: CameraModel, lo: np.ndarray, hi: np.ndarray,
                 ellipsoid: bool = False) -> tuple[int, int, int, int]:
    """Pixel rectangle (v0, v1, u0, u1), clipped to the image and empty when
    off it, holding with a 2 px margin the image of the world AABB [lo, hi]
    or, with ellipsoid set, the tighter silhouette of the ellipsoid that
    the AABB circumscribes.

    The whole image is returned when the box reaches behind the camera.
    """
    corners = np.array([[x, y, zz] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for zz in (lo[2], hi[2])])
    cam = camera.world_to_camera(corners)
    if np.any(cam[:, 2] <= 1.0):
        return 0, camera.height, 0, camera.width
    uv = (_silhouette_uv(camera, (lo + hi) / 2.0, (hi - lo) / 2.0)
          if ellipsoid else camera.project(cam))
    u0 = max(int(np.floor(uv[:, 0].min())) - 2, 0)
    u1 = min(int(np.ceil(uv[:, 0].max())) + 2, camera.width)
    v0 = max(int(np.floor(uv[:, 1].min())) - 2, 0)
    v1 = min(int(np.ceil(uv[:, 1].max())) + 2, camera.height)
    return v0, v1, u0, u1


def _silhouette_uv(camera: CameraModel, center: np.ndarray,
                   semi: np.ndarray) -> np.ndarray:
    """Corners [[u_min, v_min], [u_max, v_max]] of the image bbox of an
    axis-aligned ellipsoid wholly in front of the camera.

    In the camera frame the ellipsoid has centre m and shape
    S = R^T diag(semi^2) R. The rays (x, y, 1) that meet it fill a conic
    whose dual is D = m m^T - S, so the line x = x0 touches the silhouette
    where D00 - 2 x0 D02 + x0^2 D22 = 0, and y = y0 where
    D11 - 2 y0 D12 + y0^2 D22 = 0. D22 = m_z^2 - S_zz > 0 because the
    ellipsoid is in front.
    """
    m = (center - camera.position_world) @ camera.rotation
    dual = np.outer(m, m) - camera.rotation.T @ np.diag(semi ** 2) \
        @ camera.rotation
    uv = np.empty((2, 2))
    for k, f, c in ((0, camera.fx, camera.cx), (1, camera.fy, camera.cy)):
        root = np.sqrt(dual[k, 2] ** 2 - dual[k, k] * dual[2, 2])
        uv[:, k] = f * (dual[k, 2] + np.array([-root, root])) / dual[2, 2] + c
    return uv


def _rect_rays(camera: CameraModel, v0: int, v1: int, u0: int,
               u1: int) -> np.ndarray:
    """Camera-frame ray directions, as `_pixel_dirs` gives them, of the
    pixel centres (u+0.5, v+0.5) of rows v0:v1 and columns u0:u1 in
    row-major order."""
    d = np.empty((v1 - v0, u1 - u0, 3))
    d[..., 0] = (np.arange(u0, u1) + 0.5 - camera.cx) / camera.fx
    d[..., 1] = ((np.arange(v0, v1) + 0.5 - camera.cy) / camera.fy)[:, None]
    d[..., 2] = 1.0
    return d.reshape(-1, 3)


def _cast_scene(scene: SceneSpec, dirs_world: np.ndarray, origin: np.ndarray,
                boxes=None) -> tuple[np.ndarray, np.ndarray]:
    """Depth and label (-1 miss, 0 udder, i+1 teat i) per world-frame ray.

    The nearest surface wins. boxes, when given, holds per surface (udder,
    then each teat) the indices of the rays that can hit it.
    """
    n = len(dirs_world)
    if boxes is None:
        boxes = [np.arange(n)] * (len(scene.teats) + 1)
    surfaces = [lambda d: _ellipsoid_depths(origin, d, scene.udder_center_mm,
                                            scene.udder_semi_axes_mm)]
    surfaces += [lambda d, t=teat: _teat_depths(origin, d, t)
                 for teat in scene.teats]
    z = np.full(n, np.inf)
    label = np.full(n, -1, dtype=np.int16)
    for lab, (depths, idx) in enumerate(zip(surfaces, boxes)):
        zc = depths(dirs_world[idx])
        closer = zc < z[idx]
        sel = idx[closer]
        z[sel] = zc[closer]
        label[sel] = lab
    return z, label


@dataclass(frozen=True)
class _Geometry:
    """What the noise pass and the masks of `render` read of a scene's
    geometry, all of it read-only.

    window is (v0, v1, u0, u1); hit_idx holds the window-local row-major
    indices of the rays that hit a surface, dirs_hit their camera-frame
    directions and z_true their exact depths. labels is the window's label
    image, visible the teats' visible pixel counts and masks the
    (teat id, cleaned region, image origin) of each mask.
    """

    window: tuple
    hit_idx: np.ndarray
    dirs_hit: np.ndarray
    z_true: np.ndarray
    labels: np.ndarray
    visible: tuple
    masks: tuple


# (key, _Geometry) of the last scene `render` cast, or None.
_last_geometry = None


def _geometry_key(scene: SceneSpec) -> tuple:
    """Exact bytes of every input of the geometry pass: the camera, the
    udder and each teat's shape; never the noise, seed or stamp.

    A number's type and its repr, which round-trips, fix the arithmetic
    done with it, so equal keys mean equal casts.
    """
    cam = scene.camera
    parts = [cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height,
             cam.rotation, cam.translation_mm, scene.udder_center_mm,
             scene.udder_semi_axes_mm]
    for t in scene.teats:
        parts += [t.base_mm, t.axis, t.length_mm, t.radius_mm]
    return tuple(p.tobytes() if isinstance(p, np.ndarray)
                 else (type(p), repr(p)) for p in parts)


def _cast_geometry(scene: SceneSpec) -> _Geometry:
    """The seed-free part of a render: window, rays, casts, hit set, label
    image, visible counts and cleaned teat regions."""
    cam = scene.camera
    rects = [_rays_in_box(cam, scene.udder_center_mm - scene.udder_semi_axes_mm,
                          scene.udder_center_mm + scene.udder_semi_axes_mm,
                          ellipsoid=True)]
    for teat in scene.teats:
        ends = np.stack([teat.base_mm, teat.tip_mm])
        rects.append(_rays_in_box(cam, ends.min(axis=0) - teat.radius_mm,
                                  ends.max(axis=0) + teat.radius_mm))
    # The window, rows v0:v1 and columns u0:u1, spans the non-empty rects.
    live = [r for r in rects if r[0] < r[1] and r[2] < r[3]] or [(0, 0, 0, 0)]
    v0, u0 = (min(r[k] for r in live) for k in (0, 2))
    v1, u1 = (max(r[k] for r in live) for k in (1, 3))
    # Window-local ray indices of each rectangle; an empty one gives none.
    boxes = [(np.arange(a - v0, b - v0)[:, None] * (u1 - u0)
              + np.arange(c - u0, d - u0)).ravel() for a, b, c, d in rects]
    dirs_cam = _rect_rays(cam, v0, v1, u0, u1)
    # Row for row, this matmul gives the bits of a full-image matmul, which
    # the digests in tests/test_scene.py pin. Per-component sums need not:
    # BLAS kernels may round with fused multiply-adds.
    z_buf, label = _cast_scene(scene, dirs_cam @ cam.rotation.T,
                               cam.position_world, boxes)
    hit_idx = np.flatnonzero(np.isfinite(z_buf))

    n = len(scene.teats)
    visible = np.bincount(label + 1, minlength=n + 2)[2:]
    label_win = label.reshape(v1 - v0, u1 - u0)
    masks = []
    # In label + 1, 0 is background, 1 the udder and i + 2 teat i.
    teat_boxes = ndimage.find_objects(label_win + 1, max_label=n + 1)[1:]
    for i, box in enumerate(teat_boxes):
        if visible[i] < MIN_MASK_PIXELS:
            continue
        rows, cols = box
        cleaned = _cleaned_in_box(
            label_win[box] == i + 1,
            (slice(rows.start + v0, rows.stop + v0),
             slice(cols.start + u0, cols.stop + u0)))
        if cleaned is not None:
            masks.append((f"T{i + 1}", *cleaned))

    geo = _Geometry(window=(v0, v1, u0, u1), hit_idx=hit_idx,
                    dirs_hit=dirs_cam[hit_idx], z_true=z_buf[hit_idx],
                    labels=label_win, visible=tuple(visible.tolist()),
                    masks=tuple(masks))
    for a in (geo.hit_idx, geo.dirs_hit, geo.z_true, geo.labels,
              *(r for _, r, _ in masks)):
        a.flags.writeable = False
    return geo


def render(scene: SceneSpec, stamp_us: int = 0,
           ) -> tuple[PointCloud, list[TeatMask], GroundTruth]:
    """Render one frame: noisy camera-frame cloud, oracle masks, ground truth.

    Rays go through pixel centers (u+0.5, v+0.5) and are parameterized by
    camera depth, so depth noise is a direct scalar perturbation along each
    ray. Each surface is cast only against the pixels of its image
    rectangle (2 px around a teat's bounding box or the udder's
    silhouette), and rays are built only for the window, the rectangle
    that spans those rectangles: a pixel outside the window can hit no
    surface, so it is background by construction. Masks are the per-teat
    visible pixel sets, reduced by `clean_region` to one simple region
    (one mask per teat with >= 50 pixels left). Each teat's pixels are
    cleaned on the crop of its bounding box, which goes to the mask with
    its image origin. Reproducible bit-for-bit from (scene, seed).

    The geometry pass (window, rays, casts, hit set, label image, visible
    counts and cleaned regions) depends on neither the noise, the seed nor the
    stamp, so the last one is kept and reused while the next scene has
    the same camera, udder and teats, byte for byte; a copy of a scene
    with another seed re-renders only its noise. The jittered rays and
    their recast, the depth noise, the dropout and the stamps are never
    reused, and every returned array is new.
    """
    global _last_geometry
    key = _geometry_key(scene)
    entry = _last_geometry
    if entry is None or entry[0] != key:
        entry = _last_geometry = None  # the old entry goes before the recast
        entry = _last_geometry = (key, _cast_geometry(scene))
    geo = entry[1]
    v0, v1, u0, u1 = geo.window
    cam = scene.camera
    rng = np.random.default_rng(np.random.SeedSequence(scene.seed))

    # Noise draws happen in a fixed order: jitter, depth eps, dropout.
    # Huge settings may overflow: an overflowing jittered ray misses and is
    # dropped, and a non-finite depth fails PointCloud's finite check.
    noise = scene.noise
    dirs_sample = geo.dirs_hit
    z_sample = geo.z_true
    keep = None
    with np.errstate(over="ignore", invalid="ignore"):
        if noise.lateral_jitter_px > 0:
            rows, cols = np.divmod(geo.hit_idx, u1 - u0)
            jit = np.column_stack([cols + u0, rows + v0]) + 0.5 \
                + rng.standard_normal((len(rows), 2)) * noise.lateral_jitter_px
            dirs_j = _pixel_dirs(cam, jit)
            zj, _ = _cast_scene(scene, dirs_j @ cam.rotation.T,
                                cam.position_world)
            keep = np.isfinite(zj)
            dirs_sample = np.where(keep[:, None], dirs_j, dirs_sample)
            z_sample = np.where(keep, zj, z_sample)

        sigma = noise.sigma_mm(z_sample)
        z_noisy = z_sample + rng.standard_normal(len(z_sample)) * sigma

        if noise.dropout_rate > 0:
            kept = rng.random(len(z_sample)) >= noise.dropout_rate
            keep = kept if keep is None else kept & keep
        if keep is not None:
            dirs_sample, z_noisy = dirs_sample[keep], z_noisy[keep]

        pts_cam = dirs_sample * z_noisy[:, None]

    cloud = PointCloud(pts_cam)
    masks = [TeatMask(teat_id, stamp_us, region, origin)
             for teat_id, region, origin in geo.masks]

    n = len(scene.teats)
    label_img = np.full((cam.height, cam.width), -1, dtype=np.int16)
    label_img[v0:v1, u0:u1] = geo.labels
    tips = np.stack([t.tip_mm for t in scene.teats])
    axes = np.stack([-t.axis for t in scene.teats])
    gt = GroundTruth(teat_ids=tuple(f"T{i + 1}" for i in range(n)),
                     tips_mm=tips, axes=axes,
                     visible_px=geo.visible, labels=label_img)
    return cloud, masks, gt


def _cleaned_in_box(region: np.ndarray, box) -> tuple | None:
    """(clean_region(region), image (u, v) of its top-left pixel).

    region is the image cut to box, a (rows, cols) pair of slices; every
    image pixel outside the box must be background. The crop gets a
    one-pixel background border, so components, holes and pinches are the
    ones the full image has. Returns None when fewer than MIN_MASK_PIXELS
    pixels survive the cleaning.
    """
    cleaned = clean_region(np.pad(region, 1))
    if int(cleaned.sum()) < MIN_MASK_PIXELS:
        return None
    return cleaned, (box[1].start - 1, box[0].start - 1)


# -- occlusion -----------------------------------------------------------------


def occlude(masks, occluder_px: tuple[float, float, float, float],
            width: int, height: int) -> list[TeatMask]:
    """Clip masks with a synthetic rectangular occluder (cup, leg, arm).

    Args:
        masks: TeatMasks from render().
        occluder_px: (u_min, v_min, u_max, v_max) rectangle in pixels,
            finite with u_min <= u_max and v_min <= v_max; pixels whose
            center falls inside are removed from every mask.
        width, height: Image size the masks live in.

    Returns:
        New masks, none covering a removed pixel: each component of what
        the occluder leaves is cleaned (clean_region) and becomes a mask
        with the source teat_id, so the hole an occluder inside a mask
        leaves is cut open, never filled. Components with fewer than 50
        pixels left are dropped.
    """
    u0, v0, u1, v1 = occluder_px
    if not (-math.inf < u0 <= u1 < math.inf
            and -math.inf < v0 <= v1 < math.inf):
        raise InvalidInputError(
            f"occluder_px must be finite with u_min <= u_max and "
            f"v_min <= v_max, got {tuple(occluder_px)!r}")
    cols = np.arange(width) + 0.5
    rows = np.arange(height) + 0.5
    clear = ~(((rows >= v0) & (rows <= v1))[:, None]
              & ((cols >= u0) & (cols <= u1)))
    out = []
    for m in masks:
        region = rasterize_mask(m, width, height) & clear
        # At most one box: the bounding box of what the occluder left.
        for box in ndimage.find_objects(region.astype(np.uint8)):
            remaining = region[box]
            while remaining.sum() >= MIN_MASK_PIXELS:
                comp = largest_component(remaining)
                remaining = remaining & ~comp
                cleaned = _cleaned_in_box(comp, box)
                if cleaned is not None:
                    out.append(TeatMask(m.teat_id, m.stamp_us, *cleaned))
    return out


# -- plane-target camera study -------------------------------------------------

# Width and height of the flat target, centred on the optical axis. The
# renderer draws it and the measurement averages over it, so both read this.
_PLANE_TARGET_MM = (100.0, 150.0)


def _on_plane_target(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((np.abs(x) <= _PLANE_TARGET_MM[0] / 2.0)
            & (np.abs(y) <= _PLANE_TARGET_MM[1] / 2.0))


def render_plane_target(distance_mm: float, camera: CameraModel,
                        noise: NoiseModel, seed: int = 0,
                        systematic_offset_mm: float = 0.0) -> PointCloud:
    """Depth capture of a flat target orthogonal to the optical axis.

    The target is a _PLANE_TARGET_MM rectangle centred on the axis at the
    given depth. Depth noise follows the noise model; a systematic offset
    shifts every return identically (one measurement condition).
    """
    if not 0 < distance_mm < math.inf:
        raise InvalidInputError(
            f"distance_mm must be finite and > 0, got {distance_mm!r}")
    if not (_is_int(seed) and seed >= 0):
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    dirs = _rect_rays(camera, 0, camera.height, 0, camera.width)
    dirs = dirs[_on_plane_target(dirs[:, 0] * distance_mm,
                                 dirs[:, 1] * distance_mm)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(noise.sigma_mm(distance_mm))
    if not math.isfinite(sigma):
        raise InvalidInputError(
            f"depth noise sigma at {distance_mm!r} mm is not finite")
    z = distance_mm + systematic_offset_mm \
        + rng.standard_normal(len(dirs)) * sigma
    if noise.dropout_rate > 0:
        keep = rng.random(len(dirs)) >= noise.dropout_rate
        dirs, z = dirs[keep], z[keep]
    return PointCloud(dirs * z[:, None])


def plane_target_measure(cloud: PointCloud) -> float:
    """Distance to a plane target: mean z over the points on the target.

    Args:
        cloud: Camera-frame cloud; points count when their x/y fall in the
            _PLANE_TARGET_MM rectangle centred on the optical axis.

    Returns:
        Mean z in mm.

    Raises:
        InsufficientPointsError: Fewer than 100 points fall on the target.
    """
    p = cloud.points
    on = _on_plane_target(p[:, 0], p[:, 1])
    n = int(on.sum())
    if n < 100:
        raise InsufficientPointsError(f"only {n} points on the plane target")
    return float(p[on, 2].mean())


@dataclass(frozen=True)
class ErrorCurve:
    """Quadratic distance-error model |error|(d) = a + b * d^2 (d in meters)."""

    a_mm: float
    b_mm_per_m2: float
    max_error_at_1m_mm: float


def fit_error_curve(samples) -> ErrorCurve:
    """Least-squares fit of |error| against (1, d^2).

    Args:
        samples: Iterable of (distance_mm, error_mm) pairs covering >= 3
            distinct distances.

    Returns:
        ErrorCurve with the fitted coefficients and the predicted maximum
        error for ranges up to 1 m (the curve is monotone, so that is the
        value at exactly 1 m).

    Raises:
        CurveFitError: Non-finite samples, fewer than 3 distinct distances,
            squared distances that overflow or a degenerate design.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or len(data) == 0:
        raise CurveFitError("samples must be (distance_mm, error_mm) pairs")
    if not np.all(np.isfinite(data)):
        raise CurveFitError("samples must be finite")
    d_m = data[:, 0] / 1000.0
    err = np.abs(data[:, 1])
    if len(np.unique(d_m)) < 3:
        raise CurveFitError("need >= 3 distinct distances to fit the curve")
    with np.errstate(over="ignore"):
        design = np.column_stack([np.ones(len(d_m)), d_m ** 2])
    if not np.all(np.isfinite(design)):
        raise CurveFitError("squared distances overflow")
    sol, _, rank, _ = np.linalg.lstsq(design, err, rcond=None)
    if rank < 2:
        raise CurveFitError("degenerate design matrix")
    a, b = float(sol[0]), float(sol[1])
    return ErrorCurve(a_mm=a, b_mm_per_m2=b, max_error_at_1m_mm=a + b)


# -- canned scenes ---------------------------------------------------------------


def default_scene(seed: int = 0, noise: NoiseModel | None = None,
                  n_teats: int = 4) -> SceneSpec:
    """Standard test rig: up to 6 teats under an ellipsoid udder, camera at
    roughly 600 mm looking slightly upward at the teat field."""
    if not (_is_int(n_teats) and 1 <= n_teats <= 6):
        raise InvalidSceneError(
            f"teat count must be an integer in 1..6, got {n_teats!r}")
    center = np.array([0.0, 0.0, 650.0])
    semi = np.array([170.0, 130.0, 100.0])
    # Offsets chosen so no teat hides another from the default viewpoint.
    slots = [(-40.0, -50.0, -2.0), (40.0, -50.0, 3.0),
             (-85.0, 55.0, -4.0), (85.0, 55.0, 2.0),
             (0.0, 20.0, 0.0), (0.0, -15.0, 5.0)]
    teats = []
    for i in range(n_teats):
        x, y, tilt_deg = slots[i]
        dz = semi[2] * np.sqrt(max(0.0, 1.0 - (x / semi[0]) ** 2
                                   - (y / semi[1]) ** 2))
        base = np.array([x, y, center[2] - dz + 12.0])
        tilt = np.deg2rad(tilt_deg)
        axis = np.array([np.sin(tilt), 0.0, -np.cos(tilt)])
        teats.append(TeatSpec(base_mm=base, axis=axis))
    tips = np.stack([t.tip_mm for t in teats])
    target = tips.mean(axis=0)
    cam_pos = target + np.array([0.0, -585.0, -85.0])
    camera = CameraModel.look_at(cam_pos, target)
    return SceneSpec(teats=tuple(teats), udder_center_mm=center,
                     udder_semi_axes_mm=semi, camera=camera,
                     noise=noise or NoiseModel(), seed=seed)
