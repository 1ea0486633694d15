"""Literal boundary traces for small pixel regions.

trace_boundary walks the cell-union boundary in unit lattice steps. It starts
at the smallest (u, v) vertex and first moves down the left edge (+v), so in
image coordinates the walk runs down the left side, along the bottom and back
up the right side.
"""

from __future__ import annotations

import numpy as np
import pytest

from teatpose.contour import trace_boundary


def _region(rows: str) -> np.ndarray:
    """Boolean image from space-separated rows, 'X' marking region pixels."""
    return np.array([[c == "X" for c in row] for row in rows.split()])


class TestTraceBoundary:

    @pytest.mark.parametrize("region, expected", [
        (_region("X"),
         [(0, 0), (0, 1), (1, 1), (1, 0)]),
        (_region("... .X. ..."),
         [(1, 1), (1, 2), (2, 2), (2, 1)]),
        (_region("X. XX"),
         [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (1, 1), (1, 0)]),
        (_region("X.X XXX"),
         [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2), (3, 1), (3, 0),
          (2, 0), (2, 1), (1, 1), (1, 0)]),
        # Touches the top and right image borders: vertices reach u = width.
        (_region("..XX ..XX ...."),
         [(2, 0), (2, 1), (2, 2), (3, 2), (4, 2), (4, 1), (4, 0), (3, 0)]),
    ], ids=["single_pixel", "interior_pixel", "l_shape", "u_shape",
            "touches_border"])
    def test_literal_vertices(self, region, expected):
        verts = trace_boundary(region)
        assert verts.dtype == np.int64
        assert [tuple(v) for v in verts.tolist()] == expected

    @pytest.mark.parametrize("region, message", [
        (_region("X. .X"), "not a simple closed curve"),
        (_region("X.X"), "more than one loop"),
        (_region(".. .."), "empty region"),
    ], ids=["diagonal_pinch", "two_regions", "empty"])
    def test_rejected(self, region, message):
        with pytest.raises(ValueError, match=message):
            trace_boundary(region)
