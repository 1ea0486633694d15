"""Literal boundary traces for small pixel regions.

trace_boundary walks the cell-union boundary in unit lattice steps. It starts
at the smallest (u, v) vertex and first moves down the left edge (+v), so in
image coordinates the walk runs down the left side, along the bottom and back
up the right side.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from teatpose.contour import clean_region, trace_boundary
from teatpose.mask import TeatMask, rasterize_mask


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


class TestCleanRegion:

    @pytest.mark.parametrize("region, expected", [
        (_region("XXXXX XXXXX XX.XX XXXXX"),
         _region("XX.XX XX.XX XX.XX XXXXX")),
        # Two holes in one column: one cut opens both.
        (_region("XXX X.X XXX X.X XXX"),
         _region("X.X X.X X.X X.X XXX")),
        # A pocket open at a corner is a pinch; one pixel opens it.
        (_region("XXX X.X XX."),
         _region("XXX X.X X..")),
    ], ids=["hole", "stacked_holes", "corner_pocket"])
    def test_holes_are_cut_open_never_filled(self, region, expected):
        np.testing.assert_array_equal(clean_region(region), expected)


class TestRoundTrip:
    """The traced contour of a cleaned region, rasterized by the mask
    membership path, gives back the region."""

    def test_random_regions(self):
        rng = np.random.default_rng(15)
        seen = dict.fromkeys(["hole", "pinch", "border"], 0)
        for _ in range(300):
            h, w = rng.integers(2, 25, 2)
            raw = rng.random((h, w)) < rng.uniform(0.3, 0.95)
            region = clean_region(raw)
            assert not (region & ~raw).any()
            if not region.any():
                continue
            seen["hole"] += bool((ndimage.binary_fill_holes(raw)
                                  & ~raw).any())
            seen["pinch"] += bool((raw[:-1, :-1] & raw[1:, 1:]
                                   & ~raw[:-1, 1:] & ~raw[1:, :-1]).any())
            seen["border"] += bool(region[0].any() or region[-1].any()
                                   or region[:, 0].any()
                                   or region[:, -1].any())

            verts = trace_boundary(region)
            keys = [tuple(v) for v in verts.tolist()]
            assert keys[0] == min(keys)
            assert keys[1] == (keys[0][0], keys[0][1] + 1)
            assert len(set(keys)) == len(keys)
            np.testing.assert_array_equal(
                rasterize_mask(TeatMask("T", 0, verts), w, h), region)
        assert min(seen.values()) >= 100, seen


class TestCropEquivalence:
    """Cleaning and tracing a region on its bounding-box crop, padded with
    one background pixel, gives the full-image contour once the crop's
    origin is added. render and occlude rely on this."""

    def test_random_regions(self):
        rng = np.random.default_rng(4)
        seen = dict.fromkeys(["hole", "pinch", "components", "border"], 0)
        for _ in range(400):
            h, w = rng.integers(6, 30, 2)
            bh, bw = rng.integers(2, h + 1), rng.integers(2, w + 1)
            r, c = rng.integers(0, h - bh + 1), rng.integers(0, w - bw + 1)
            density = rng.uniform(0.3, 0.9)
            full = np.zeros((h, w), dtype=bool)
            full[r:r + bh, c:c + bw] = rng.random((bh, bw)) < density
            if not full.any():
                continue
            seen["hole"] += bool((ndimage.binary_fill_holes(full)
                                  & ~full).any())
            seen["pinch"] += bool((full[:-1, :-1] & full[1:, 1:]
                                   & ~full[:-1, 1:] & ~full[1:, :-1]).any())
            seen["components"] += ndimage.label(full)[1] > 1
            seen["border"] += bool(full[0].any() or full[-1].any()
                                   or full[:, 0].any() or full[:, -1].any())

            (rows, cols), = ndimage.find_objects(full.astype(np.uint8))
            cropped = trace_boundary(clean_region(np.pad(full[rows, cols], 1)))
            expected = trace_boundary(clean_region(full))
            np.testing.assert_array_equal(
                cropped + (cols.start - 1, rows.start - 1), expected)
        assert min(seen.values()) >= 100, seen
