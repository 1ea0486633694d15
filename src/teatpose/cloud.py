"""Point cloud container.

A cloud is geometry only: float64 coordinates in mm in the camera frame
(x right, y down, z forward). Every cloud the package builds comes from
the sensor; only the final tip and axis of a pose go to the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PointCloud:
    """Immutable (n, 3) float64 set of camera-frame 3D points in mm."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("cloud contains non-finite coordinates")
        object.__setattr__(self, "points", p)
        p.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def select(self, index) -> "PointCloud":
        """Subset cloud by boolean mask or index array, preserving order."""
        return PointCloud(self.points[index])
