"""Pinhole camera model with a rigid camera-to-world extrinsic.

All positions are in millimeters. Pixel coordinates follow the usual image
convention: u grows to the right, v grows downward, and the camera frame is
x-right / y-down / z-forward, so every visible point has z > 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _check_keys

WORLD_UP = np.array([0.0, 0.0, 1.0])

_ORTHO_TOL = 1e-9


def _as_matrix(rotation) -> np.ndarray:
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise InvalidInputError(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("rotation contains non-finite values")
    if not np.allclose(r @ r.T, np.eye(3), atol=_ORTHO_TOL):
        raise InvalidInputError("rotation is not orthonormal")
    if not np.isclose(np.linalg.det(r), 1.0, atol=_ORTHO_TOL):
        raise InvalidInputError("rotation determinant is not +1 (improper rotation)")
    return r


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics plus a camera-to-world rigid transform.

    Attributes:
        fx, fy: Focal lengths in pixels.
        cx, cy: Principal point in pixels.
        width, height: Image size in pixels.
        rotation: 3x3 camera-to-world rotation (p_world = R @ p_cam + t).
        translation_mm: Camera origin expressed in the world frame.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation_mm: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image size must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidInputError("principal point must lie inside the image")
        object.__setattr__(self, "rotation", _as_matrix(self.rotation))
        t = np.asarray(self.translation_mm, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise InvalidInputError("translation contains non-finite values")
        object.__setattr__(self, "translation_mm", t)
        self.rotation.flags.writeable = False
        self.translation_mm.flags.writeable = False

    # -- intrinsics ---------------------------------------------------------

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Project camera-frame points to pixel coordinates.

        Args:
            points_cam: (3,) or (N, 3) camera-frame points, z > 0.

        Returns:
            (2,) or (N, 2) pixel coordinates (u, v).
        """
        p = np.asarray(points_cam, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        z = p[:, 2]
        if np.any(z <= 0):
            raise InvalidInputError("cannot project points with z <= 0")
        uv = np.empty((len(p), 2))
        uv[:, 0] = self.fx * p[:, 0] / z + self.cx
        uv[:, 1] = self.fy * p[:, 1] / z + self.cy
        return uv[0] if single else uv

    def backproject(self, pixel, depth_mm: float) -> np.ndarray:
        """Lift a pixel at a given depth into the camera frame.

        Args:
            pixel: (u, v) pixel coordinates, inside the closed image rectangle.
            depth_mm: Depth along the optical axis, strictly positive.

        Returns:
            (3,) camera-frame point in mm.
        """
        u, v = float(pixel[0]), float(pixel[1])
        if depth_mm <= 0:
            raise InvalidInputError(f"depth must be positive, got {depth_mm}")
        if not (0 <= u <= self.width and 0 <= v <= self.height):
            raise InvalidInputError(f"pixel ({u}, {v}) outside image bounds")
        return np.array([
            (u - self.cx) * depth_mm / self.fx,
            (v - self.cy) * depth_mm / self.fy,
            depth_mm,
        ])

    # -- extrinsics ---------------------------------------------------------

    @property
    def position_world(self) -> np.ndarray:
        return self.translation_mm

    @property
    def up_in_camera(self) -> np.ndarray:
        """World up-vector expressed in the camera frame."""
        return self.rotation.T @ WORLD_UP

    def camera_to_world(self, points_cam: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points_cam, dtype=float))
        out = p @ self.rotation.T + self.translation_mm
        return out[0] if np.asarray(points_cam).ndim == 1 else out

    def world_to_camera(self, points_world: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points_world, dtype=float))
        out = (p - self.translation_mm) @ self.rotation
        return out[0] if np.asarray(points_world).ndim == 1 else out

    def rotate_to_world(self, directions_cam: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(np.asarray(directions_cam, dtype=float))
        out = d @ self.rotation.T
        return out[0] if np.asarray(directions_cam).ndim == 1 else out

    # -- construction helpers ------------------------------------------------

    @classmethod
    def look_at(cls, position, target, fx: float = 570.0, fy: float = 570.0,
                cx: float = 320.0, cy: float = 240.0,
                width: int = 640, height: int = 480) -> "CameraModel":
        """Build a camera at `position` whose optical axis points at `target`.

        The image x-axis stays horizontal in the world (no roll).
        """
        position = np.asarray(position, dtype=float)
        target = np.asarray(target, dtype=float)
        forward = target - position
        norm = np.linalg.norm(forward)
        if norm < 1e-9:
            raise InvalidInputError("camera position and target coincide")
        zc = forward / norm
        xc = np.cross(zc, WORLD_UP)
        xn = np.linalg.norm(xc)
        if xn < 1e-9:
            raise InvalidInputError("optical axis parallel to world up; roll undefined")
        xc /= xn
        yc = np.cross(zc, xc)
        rotation = np.column_stack([xc, yc, zc])
        return cls(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                   rotation=rotation, translation_mm=position)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "width": self.width, "height": self.height,
            "extrinsic": {
                "rotation_rowmajor": [float(x) for x in self.rotation.ravel()],
                "translation_mm": [float(x) for x in self.translation_mm],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CameraModel":
        kwargs = dict(_check_keys(
            d, "camera", ("fx", "fy", "cx", "cy", "width", "height",
                          "extrinsic"), required=("fx", "fy", "cx", "cy")))
        ext = _check_keys(kwargs.pop("extrinsic", {}), "camera extrinsic",
                          ("rotation_rowmajor", "translation_mm"))
        if "rotation_rowmajor" in ext:
            kwargs["rotation"] = np.reshape(ext["rotation_rowmajor"], (3, 3))
        if "translation_mm" in ext:
            kwargs["translation_mm"] = ext["translation_mm"]
        return cls(**kwargs)

    def save_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load_json(cls, path) -> "CameraModel":
        with open(path) as f:
            return cls.from_dict(json.load(f))
