"""Point cloud container.

A cloud is geometry only: float64 coordinates in mm plus an explicit
coordinate-frame tag, so that camera-frame and world-frame data can never
be mixed silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, InvalidInputError

FRAME_CAMERA = "camera"
FRAME_WORLD = "world"
_FRAMES = (FRAME_CAMERA, FRAME_WORLD)


@dataclass(frozen=True)
class PointCloud:
    """Immutable (n, 3) float64 set of 3D points in mm with a frame tag."""

    points: np.ndarray
    frame: str = FRAME_CAMERA

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("cloud contains non-finite coordinates")
        if self.frame not in _FRAMES:
            raise InvalidInputError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "points", p)
        p.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def require_frame(self, frame: str, op: str) -> None:
        if self.frame != frame:
            raise FrameMismatchError(
                f"{op} expects a {frame}-frame cloud, got {self.frame!r}")

    def require_finite_extent(self, op: str) -> None:
        """InvalidInputError unless the squared bbox diagonal is finite.

        Every squared point distance is at most that diagonal, so k-d tree
        searches cannot overflow on such a cloud.
        """
        if len(self.points) == 0:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            extent = self.points.max(axis=0) - self.points.min(axis=0)
            diag2 = float(np.sum(extent * extent))
        if not np.isfinite(diag2):
            raise InvalidInputError(
                f"{op}: cloud extent {extent.tolist()} mm overflows squared "
                "distances")

    def select(self, index) -> "PointCloud":
        """Subset cloud by boolean mask or index array, preserving order."""
        return PointCloud(self.points[index], frame=self.frame)
