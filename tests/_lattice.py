"""Lattice contours for tests: the only contours a TeatMask accepts.

A lattice contour is what `trace_boundary` returns: closed, every edge one
pixel long along u or v, no vertex twice.
"""

from __future__ import annotations

import numpy as np


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

