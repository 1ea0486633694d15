"""Parametric udder scenes: analytic ray casting, oracle masks, sensor noise.

Scene geometry lives in the world frame (z up, mm). A teat is a solid
cylinder capped by a hemisphere; the udder is an axis-aligned ellipsoid.
Rendering casts one ray per pixel center through the nearest analytic
surface, which keeps ground truth exact: no meshing, no discretization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .camera import CameraModel
from .cloud import FRAME_CAMERA, PointCloud
from .contour import clean_region, largest_component, trace_boundary
from .errors import (CurveFitError, InsufficientPointsError, InvalidInputError,
                     InvalidSceneError, _check_keys, _dataclass_from_dict)
from .mask import TeatMask, rasterize_mask

MIN_MASK_PIXELS = 50

_UDDER_COLOR = (208, 178, 158)
_TEAT_COLOR = (232, 156, 168)


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
    tip_shape: str = "hemisphere"

    def __post_init__(self):
        b = np.asarray(self.base_mm, dtype=float).reshape(3)
        a = np.asarray(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise InvalidSceneError("teat axis must be non-zero")
        a = a / n
        if self.length_mm <= 0 or self.radius_mm <= 0:
            raise InvalidSceneError("teat length and radius must be positive")
        if self.length_mm <= self.radius_mm:
            raise InvalidSceneError(
                "teat length must exceed the tip radius (cylinder part > 0)")
        if self.tip_shape != "hemisphere":
            raise InvalidSceneError(f"unsupported tip shape {self.tip_shape!r}")
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

    def contains(self, p: np.ndarray, margin: float = 0.0) -> bool:
        """True if the world point lies inside the solid (inflated by margin)."""
        w = np.asarray(p, dtype=float) - self.base_mm
        t = float(w @ self.axis)
        r = self.radius_mm + margin
        h = self.length_mm - self.radius_mm
        if 0.0 <= t <= h and np.linalg.norm(w - t * self.axis) <= r:
            return True
        return bool(np.linalg.norm(np.asarray(p, dtype=float)
                                   - self.cap_center_mm) <= r)

    def to_dict(self) -> dict:
        return {"base_mm": self.base_mm.tolist(), "axis": self.axis.tolist(),
                "length_mm": self.length_mm, "radius_mm": self.radius_mm,
                "tip_shape": self.tip_shape}

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
        if self.a_mm < 0 or self.b_mm_per_m2 < 0:
            raise InvalidInputError("noise coefficients must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidInputError("dropout_rate must be in [0, 1)")
        if self.lateral_jitter_px < 0:
            raise InvalidInputError("lateral jitter must be >= 0")

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
        teats = tuple(self.teats)
        if not 1 <= len(teats) <= 6:
            raise InvalidSceneError(f"teat count must be 1..6, got {len(teats)}")
        c = np.asarray(self.udder_center_mm, dtype=float).reshape(3)
        s = np.asarray(self.udder_semi_axes_mm, dtype=float).reshape(3)
        if np.any(s <= 0):
            raise InvalidSceneError("udder semi-axes must be positive")
        object.__setattr__(self, "teats", teats)
        object.__setattr__(self, "udder_center_mm", c)
        object.__setattr__(self, "udder_semi_axes_mm", s)
        c.flags.writeable = False
        s.flags.writeable = False

        for i, t in enumerate(teats):
            if np.sum(((t.base_mm - c) / s) ** 2) > 1.0 + 1e-9:
                raise InvalidSceneError(f"teat {i} base detached from the udder")
            if np.sum(((t.tip_mm - c) / s) ** 2) <= 1.0:
                raise InvalidSceneError(f"teat {i} tip buried inside the udder")
        for i in range(len(teats)):
            for j in range(i + 1, len(teats)):
                gap = _segment_distance(
                    teats[i].base_mm, teats[i].tip_mm,
                    teats[j].base_mm, teats[j].tip_mm)
                if gap < teats[i].radius_mm + teats[j].radius_mm - 1e-9:
                    raise InvalidSceneError(f"teats {i} and {j} interpenetrate")

        pos = self.camera.position_world
        if np.sum(((pos - c) / s) ** 2) <= 1.0:
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
        udder_keys = ("center_mm", "semi_axes_mm")
        udder = _check_keys(d["udder"], "udder", udder_keys, udder_keys)
        return cls(
            teats=tuple(TeatSpec.from_dict(t) for t in d["teats"]),
            udder_center_mm=np.array(udder["center_mm"]),
            udder_semi_axes_mm=np.array(udder["semi_axes_mm"]),
            camera=CameraModel.from_dict(d["camera"]),
            noise=NoiseModel.from_dict(d.get("noise", {})),
            seed=int(d.get("seed", 0)),
        )

    def save_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load_json(cls, path) -> "SceneSpec":
        with open(path) as f:
            return cls.from_dict(json.load(f))


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
                 ) -> np.ndarray:
    """Flat pixel indices inside the conservative image bbox of a world AABB.

    Every pixel is returned when the box reaches behind the camera.
    """
    corners = np.array([[x, y, zz] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for zz in (lo[2], hi[2])])
    cam = camera.world_to_camera(corners)
    if np.any(cam[:, 2] <= 1.0):
        return np.arange(camera.width * camera.height)
    uv = camera.project(cam)
    u0 = max(int(np.floor(uv[:, 0].min())) - 2, 0)
    u1 = min(int(np.ceil(uv[:, 0].max())) + 2, camera.width)
    v0 = max(int(np.floor(uv[:, 1].min())) - 2, 0)
    v1 = min(int(np.ceil(uv[:, 1].max())) + 2, camera.height)
    return (np.arange(v0, v1)[:, None] * camera.width
            + np.arange(u0, u1)).ravel()


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


def render(scene: SceneSpec, stamp_us: int = 0,
           ) -> tuple[PointCloud, list[TeatMask], GroundTruth]:
    """Render one frame: noisy camera-frame cloud, oracle masks, ground truth.

    Rays go through pixel centers (u+0.5, v+0.5) and are parameterized by
    camera depth, so depth noise is a direct scalar perturbation along each
    ray. Masks are the lattice boundaries of the per-teat visible pixel sets
    (one mask per teat with >= 50 visible pixels). Reproducible bit-for-bit
    from (scene, seed).
    """
    cam = scene.camera
    w, h = cam.width, cam.height
    rng = np.random.default_rng(np.random.SeedSequence(scene.seed))
    origin = cam.position_world

    uu, vv = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    pix = np.column_stack([uu.ravel(), vv.ravel()])
    dirs_cam = _pixel_dirs(cam, pix)
    dirs_w = dirs_cam @ cam.rotation.T

    boxes = [_rays_in_box(cam, scene.udder_center_mm - scene.udder_semi_axes_mm,
                          scene.udder_center_mm + scene.udder_semi_axes_mm)]
    for teat in scene.teats:
        ends = np.stack([teat.base_mm, teat.tip_mm])
        boxes.append(_rays_in_box(cam, ends.min(axis=0) - teat.radius_mm,
                                  ends.max(axis=0) + teat.radius_mm))
    z_buf, label = _cast_scene(scene, dirs_w, origin, boxes)

    hit_idx = np.flatnonzero(np.isfinite(z_buf))
    z_true = z_buf[hit_idx]

    # Noise draws happen in a fixed order: jitter, depth eps, dropout.
    noise = scene.noise
    dirs_sample = dirs_cam[hit_idx]
    z_sample = z_true
    keep_jitter = np.ones(len(hit_idx), dtype=bool)
    if noise.lateral_jitter_px > 0:
        jit = pix[hit_idx] + rng.standard_normal((len(hit_idx), 2)) \
            * noise.lateral_jitter_px
        dirs_j = _pixel_dirs(cam, jit)
        zj, _ = _cast_scene(scene, dirs_j @ cam.rotation.T, origin)
        keep_jitter = np.isfinite(zj)
        dirs_sample = np.where(keep_jitter[:, None], dirs_j, dirs_sample)
        z_sample = np.where(keep_jitter, zj, z_true)

    sigma = noise.sigma_mm(z_sample)
    z_noisy = z_sample + rng.standard_normal(len(z_sample)) * sigma

    if noise.dropout_rate > 0:
        keep = (rng.random(len(hit_idx)) >= noise.dropout_rate) & keep_jitter
    else:
        keep = keep_jitter

    pts_cam = dirs_sample[keep] * z_noisy[keep, None]
    lab_kept = label[hit_idx][keep]
    colors = np.empty((len(pts_cam), 3), dtype=np.uint8)
    colors[lab_kept == 0] = _UDDER_COLOR
    colors[lab_kept > 0] = _TEAT_COLOR
    cloud = PointCloud(pts_cam, frame=FRAME_CAMERA, colors=colors)

    label_img = label.reshape(h, w)
    masks = []
    for i in range(len(scene.teats)):
        region = label_img == i + 1
        if int(region.sum()) < MIN_MASK_PIXELS:
            continue
        cleaned = clean_region(region)
        if int(cleaned.sum()) < MIN_MASK_PIXELS:
            continue
        contour = trace_boundary(cleaned)
        masks.append(TeatMask(teat_id=f"T{i + 1}", stamp_us=stamp_us,
                              contour=contour))

    tips = np.stack([t.tip_mm for t in scene.teats])
    axes = np.stack([-t.axis for t in scene.teats])
    visible = tuple(int((label_img == i + 1).sum())
                    for i in range(len(scene.teats)))
    gt = GroundTruth(teat_ids=tuple(f"T{i + 1}" for i in range(len(scene.teats))),
                     tips_mm=tips, axes=axes, visible_px=visible,
                     labels=label_img)
    return cloud, masks, gt


# -- occlusion -----------------------------------------------------------------


def occlude(masks, occluder_px: tuple[float, float, float, float],
            width: int, height: int) -> list[TeatMask]:
    """Clip masks with a synthetic rectangular occluder (cup, leg, arm).

    Args:
        masks: TeatMasks from render().
        occluder_px: (u_min, v_min, u_max, v_max) rectangle in pixels;
            pixels whose center falls inside are removed from every mask.
        width, height: Image size the masks live in.

    Returns:
        New masks; a clipped mask may split into several components (each
        keeps the source teat_id) and components under 50 px are dropped.
    """
    u0, v0, u1, v1 = occluder_px
    out = []
    for m in masks:
        region = rasterize_mask(m, width, height)
        vv, uu = np.mgrid[0:height, 0:width]
        inside = ((uu + 0.5 >= u0) & (uu + 0.5 <= u1)
                  & (vv + 0.5 >= v0) & (vv + 0.5 <= v1))
        remaining = region & ~inside
        while remaining.sum() >= MIN_MASK_PIXELS:
            comp = largest_component(remaining)
            remaining = remaining & ~comp
            comp = clean_region(comp)
            if int(comp.sum()) < MIN_MASK_PIXELS:
                continue
            out.append(TeatMask(teat_id=m.teat_id, stamp_us=m.stamp_us,
                                contour=trace_boundary(comp)))
    return out


# -- plane-target camera study -------------------------------------------------


def render_plane_target(distance_mm: float, camera: CameraModel,
                        noise: NoiseModel, seed: int = 0,
                        size_mm: tuple[float, float] = (100.0, 150.0),
                        systematic_offset_mm: float = 0.0) -> PointCloud:
    """Depth capture of a flat target orthogonal to the optical axis.

    The target is a size_mm[0] x size_mm[1] rectangle centred on the axis at
    the given depth. Depth noise follows the noise model; a systematic offset
    shifts every return identically (one measurement condition).
    """
    if distance_mm <= 0:
        raise InvalidInputError("target distance must be positive")
    w, h = camera.width, camera.height
    uu, vv = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    pix = np.column_stack([uu.ravel(), vv.ravel()])
    dirs = _pixel_dirs(camera, pix)
    x = dirs[:, 0] * distance_mm
    y = dirs[:, 1] * distance_mm
    on = (np.abs(x) <= size_mm[0] / 2.0) & (np.abs(y) <= size_mm[1] / 2.0)
    dirs = dirs[on]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma = float(noise.sigma_mm(distance_mm))
    z = distance_mm + systematic_offset_mm \
        + rng.standard_normal(len(dirs)) * sigma
    if noise.dropout_rate > 0:
        keep = rng.random(len(dirs)) >= noise.dropout_rate
        dirs, z = dirs[keep], z[keep]
    return PointCloud(dirs * z[:, None], frame=FRAME_CAMERA)


def plane_target_measure(cloud: PointCloud,
                         region_mm: tuple[float, float] = (100.0, 150.0),
                         center_mm: tuple[float, float] = (0.0, 0.0)) -> float:
    """Distance to a plane target: mean z over the points inside the region.

    Args:
        cloud: Camera-frame cloud.
        region_mm: Target extent (width, height) in mm.
        center_mm: Target centre in camera x/y.

    Returns:
        Mean z in mm.

    Raises:
        InsufficientPointsError: Fewer than 100 points fall on the target.
    """
    cloud.require_frame(FRAME_CAMERA, "plane_target_measure")
    p = cloud.points
    on = ((np.abs(p[:, 0] - center_mm[0]) <= region_mm[0] / 2.0)
          & (np.abs(p[:, 1] - center_mm[1]) <= region_mm[1] / 2.0))
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
        CurveFitError: Fewer than 3 distinct distances or a degenerate design.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or len(data) == 0:
        raise CurveFitError("samples must be (distance_mm, error_mm) pairs")
    d_m = data[:, 0] / 1000.0
    err = np.abs(data[:, 1])
    if len(np.unique(d_m)) < 3:
        raise CurveFitError("need >= 3 distinct distances to fit the curve")
    design = np.column_stack([np.ones(len(d_m)), d_m ** 2])
    sol, _, rank, _ = np.linalg.lstsq(design, err, rcond=None)
    if rank < 2:
        raise CurveFitError("degenerate design matrix")
    a, b = float(sol[0]), float(sol[1])
    return ErrorCurve(a_mm=a, b_mm_per_m2=b, max_error_at_1m_mm=a + b)


def sample_teat_surface(teat: TeatSpec, n: int, rng, noise_mm: float = 0.0,
                        ) -> np.ndarray:
    """Uniform area sample of the teat surface (cylinder wall + tip cap).

    The base disc is excluded: it faces the udder and no sensor sees it.
    By symmetry the principal axis of such a sample is the teat axis, which
    makes this the reference geometry for orientation checks. Optional
    isotropic Gaussian noise is added per point.

    Returns:
        (n, 3) world-frame points.
    """
    a = teat.axis
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(a)))] = 1.0
    u = np.cross(ref, a)
    u /= np.linalg.norm(u)
    v = np.cross(a, u)
    r = teat.radius_mm
    h = teat.length_mm - teat.radius_mm

    area_cyl = 2.0 * np.pi * r * h
    area_cap = 2.0 * np.pi * r * r
    on_cap = rng.random(n) < area_cap / (area_cyl + area_cap)
    theta = rng.random(n) * 2.0 * np.pi
    ring = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v

    pts = np.empty((n, 3))
    t = rng.random(n) * h
    pts[~on_cap] = (teat.base_mm + t[~on_cap, None] * a
                    + r * ring[~on_cap])
    # Uniform on the hemisphere: cos of the polar angle is uniform in [0, 1].
    ca = rng.random(n)
    sa = np.sqrt(1.0 - ca ** 2)
    cap_dir = ca[:, None] * a + sa[:, None] * ring
    pts[on_cap] = teat.cap_center_mm + r * cap_dir[on_cap]
    if noise_mm > 0:
        pts = pts + rng.standard_normal((n, 3)) * noise_mm
    return pts


# -- canned scenes ---------------------------------------------------------------


def default_scene(seed: int = 0, noise: NoiseModel | None = None,
                  n_teats: int = 4) -> SceneSpec:
    """Standard test rig: up to 6 teats under an ellipsoid udder, camera at
    roughly 600 mm looking slightly upward at the teat field."""
    if not 1 <= n_teats <= 6:
        raise InvalidSceneError(f"teat count must be 1..6, got {n_teats}")
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
