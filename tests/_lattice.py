"""Lattice contours and pixel rectangles for tests.

A lattice contour is what `trace_boundary` returns: closed, every edge one
pixel long along u or v, no vertex twice.
"""

from __future__ import annotations

import numpy as np

from teatpose.mask import TeatMask


def unit_steps(corners) -> np.ndarray:
    """Lattice contour that visits the corners in order, one pixel a step.

    Consecutive corners, the last and the first included, must differ in
    exactly one of u and v. The inverse of `test_scene._corners`.
    """
    corners = np.asarray(corners, dtype=np.int64)
    runs = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        d = b - a
        assert np.count_nonzero(d) == 1, (a, b)
        runs.append(a + np.outer(np.arange(np.abs(d).sum()), np.sign(d)))
    return np.concatenate(runs)


def rect_mask(u0: int, v0: int, u1: int, v1: int, teat_id: str = "T1",
              stamp_us: int = 0) -> TeatMask:
    """Mask of the pixels u0 <= u < u1, v0 <= v < v1."""
    return TeatMask(teat_id, stamp_us,
                    np.ones((v1 - v0, u1 - u0), dtype=bool), (u0, v0))
