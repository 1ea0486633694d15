"""Brute-force references for tests, one per kernel, and the test-only
geometry they run on (surface samples, pinhole backprojection).

Each is the plainest code that gives the answer: Python loops, dicts and
all-pairs matrices, with none of the production path's bookkeeping.
"""

from __future__ import annotations

import numpy as np

from teatpose.scene import TeatSpec


def axis_angle_deg(a, b) -> float:
    """Angle between two unit axes in degrees, sign ignored."""
    return float(np.degrees(np.arccos(np.clip(abs(np.dot(a, b)), 0.0, 1.0))))


def _orthobasis(axis):
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(ref, axis)
    u /= np.linalg.norm(u)
    return u, np.cross(axis, u)


def sample_teat_surface(teat, n: int, rng, noise_mm: float = 0.0,
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
    u, v = _orthobasis(a)
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


def teat_rings(teat, azimuths, step_mm=1.5):
    """Deterministic rings on the wall and tip cap of a TeatSpec.

    Axisymmetric by construction, so the point covariance's major axis is
    exactly the teat axis and the cap points lie exactly on the tip sphere:
    estimator error against them is pure method error.
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


def random_teat(rng, max_tilt_deg=30.0):
    """Teat hanging within max_tilt_deg of straight down, ~600 mm up."""
    tilt = np.radians(rng.uniform(0.0, max_tilt_deg))
    az = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.array([np.sin(tilt) * np.cos(az),
                     np.sin(tilt) * np.sin(az),
                     -np.cos(tilt)])
    base = rng.uniform(-50.0, 50.0, 3) + np.array([0.0, 0.0, 600.0])
    return TeatSpec(base_mm=base, axis=axis)


def oracle_downsample(points: np.ndarray, leaf: float) -> np.ndarray:
    """Hash-map brute force: bucket by voxel index, average each bucket."""
    buckets: dict[tuple, list] = {}
    for p in points:
        key = tuple(int(i) for i in np.floor(p / leaf))
        buckets.setdefault(key, []).append(p)
    keys = sorted(buckets)
    return np.array([np.mean(buckets[k], axis=0) for k in keys])


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


def oracle_components(points: np.ndarray, tol: float) -> set[frozenset]:
    """Index sets of the clusters, by union-find over all pairwise distances."""
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
    return {frozenset(g) for g in groups.values()}


def as_sets(clusters, points: np.ndarray) -> set[frozenset]:
    """Map cluster point rows back to input indices.

    Equal rows are at distance 0, so they always share a cluster: each row
    stands for every input index that holds it.
    """
    index: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        index.setdefault(tuple(p), []).append(i)
    return {frozenset(i for q in c.points for i in index[tuple(q)])
            for c in clusters}


def backproject(camera, pixel, depth_mm: float) -> np.ndarray:
    """Camera-frame point at depth_mm along the optical axis whose pinhole
    projection is pixel (u, v): the inverse of `CameraModel.project`."""
    u, v = float(pixel[0]), float(pixel[1])
    return np.array([(u - camera.cx) * depth_mm / camera.fx,
                     (v - camera.cy) * depth_mm / camera.fy, depth_mm])


_CHUNK = 4096


def points_in_polygon(uv: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd membership of 2D points in any closed polygon.

    Half-open crossing rule: an edge counts when exactly one endpoint lies
    strictly above the query row, and the crossing is strictly right of the
    point. Vertices and edge interiors therefore resolve deterministically.
    On the traced contour of a pixel set (`TeatMask.contour`) it holds
    exactly the points whose cell is one of the set's pixels.
    """
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    dy = y2 - y1
    inside = np.zeros(len(uv), dtype=bool)
    for lo in range(0, len(uv), _CHUNK):
        pu = uv[lo:lo + _CHUNK, 0][:, None]
        pv = uv[lo:lo + _CHUNK, 1][:, None]
        cond = (y1 > pv) != (y2 > pv)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (pv - y1) * (x2 - x1) / dy
        cross = cond & (pu < xint)
        inside[lo:lo + _CHUNK] = (cross.sum(axis=1) % 2).astype(bool)
    return inside
