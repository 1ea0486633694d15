"""Tests for the CSV and SVG report emitters.

Reports must be byte-reproducible for equal inputs: fixed float formatting,
fixed line terminator, schema header line. SVGs are checked for XML
well-formedness rather than pixel content.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from teatpose.reports import (REPORT_HEADER, format_cell, read_csv,
                              svg_histogram, svg_lines, write_csv)


class TestFormatCell:

    def test_bools_before_ints(self):
        # bool is an int subclass; it must hit the bool branch
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(np.bool_(True)) == "1"

    def test_ints(self):
        assert format_cell(7) == "7"
        assert format_cell(np.int64(-3)) == "-3"

    def test_floats_fixed_width(self):
        assert format_cell(1.5) == "1.500000"
        assert format_cell(np.float64(0.1)) == "0.100000"
        assert format_cell(float("nan")) == "nan"

    def test_strings_pass_through(self):
        assert format_cell("T1") == "T1"


class TestCsv:

    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["id", "ok", "value"],
                  [["T1", True, 1.25], ["T2", False, float("nan")]])
        columns, rows = read_csv(path)
        assert columns == ["id", "ok", "value"]
        assert rows == [["T1", "1", "1.250000"], ["T2", "0", "nan"]]

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a"], [[1]])
        first = path.read_text().splitlines()[0]
        assert first == REPORT_HEADER

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_byte_identical_for_equal_inputs(self, tmp_path):
        rows = [[i, f"T{i}", i * 0.1] for i in range(20)]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_csv(path_a, ["i", "id", "x"], rows)
        write_csv(path_b, ["i", "id", "x"], rows)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestSvg:

    def test_histogram_well_formed(self, tmp_path):
        path = tmp_path / "h.svg"
        rng = np.random.default_rng(0)
        svg_histogram(rng.standard_normal(500), path,
                      title="tip error", x_label="mm")
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("rect") for child in root)

    def test_histogram_empty_values(self, tmp_path):
        path = tmp_path / "h.svg"
        svg_histogram([], path, title="empty", x_label="mm")
        ET.fromstring(path.read_text())

    def test_histogram_deterministic(self, tmp_path):
        values = np.linspace(0.0, 3.0, 100)
        path_a = tmp_path / "a.svg"
        path_b = tmp_path / "b.svg"
        svg_histogram(values, path_a, title="t", x_label="x")
        svg_histogram(values, path_b, title="t", x_label="x")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_lines_well_formed_multi_series(self, tmp_path):
        path = tmp_path / "l.svg"
        svg_lines({"one": ([1.0, 2.0, 3.0], [1.0, 4.0, 9.0]),
                   "two": ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])},
                  path, title="curves", x_label="d", y_label="e")
        root = ET.fromstring(path.read_text())
        polylines = [c for c in root if c.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_lines_empty_series(self, tmp_path):
        path = tmp_path / "l.svg"
        svg_lines({}, path, title="none", x_label="d", y_label="e")
        ET.fromstring(path.read_text())

    def test_markup_in_text_is_escaped(self, tmp_path):
        title, name = "R&D <cam> tip error", "R&D <cam>"
        path = tmp_path / "h.svg"
        svg_histogram([1.0, 2.0], path, title=title, x_label="a < b")
        texts = [c.text for c in ET.fromstring(path.read_text())
                 if c.tag.endswith("text")]
        assert title in texts and "a < b" in texts
        path = tmp_path / "l.svg"
        svg_lines({name: ([0.0, 1.0], [2.0, 3.0])}, path, title=title,
                  x_label="d", y_label="e & f")
        texts = [c.text for c in ET.fromstring(path.read_text())
                 if c.tag.endswith("text")]
        assert {title, name, "e & f"} <= set(texts)

    def test_lines_deterministic(self, tmp_path):
        series = {"s": ([0.0, 1.0], [5.0, 6.0])}
        path_a = tmp_path / "a.svg"
        path_b = tmp_path / "b.svg"
        svg_lines(series, path_a, title="t", x_label="x", y_label="y")
        svg_lines(series, path_b, title="t", x_label="x", y_label="y")
        assert path_a.read_bytes() == path_b.read_bytes()
