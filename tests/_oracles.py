"""Brute-force references for tests, one per kernel.

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
