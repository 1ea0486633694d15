"""Report emitters: versioned CSV tables and dependency-free SVG charts.

Every table starts with the schema comment line so downstream parsers can
check what they are reading. Cell formatting is fixed-width for floats,
which makes equal inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
# Escapes &, < and > as xml.sax.saxutils.escape does, without importing
# urllib.request and ssl with it.
from html import escape

import numpy as np

REPORT_HEADER = "# teatpose-report v1"

_PALETTE = ("#3366cc", "#dc3912", "#109618", "#ff9900", "#990099", "#0099c6")

# Chart size in px, and the bar count of a histogram.
_SVG_WIDTH, _SVG_HEIGHT = 480, 320
_HISTOGRAM_BINS = 20


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6f}"
    return str(value)


def write_csv(path, columns, rows) -> None:
    """Write one report table: header comment, column names, formatted rows."""
    with open(path, "w", newline="") as f:
        f.write(REPORT_HEADER + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read a report table back; verifies the schema line."""
    with open(path, newline="") as f:
        first = f.readline().rstrip("\n")
        if first != REPORT_HEADER:
            raise ValueError(f"not a teatpose report: {path}")
        reader = csv.reader(f)
        columns = next(reader)
        return columns, [row for row in reader if row]


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">'
        f'{escape(title, quote=False)}</text>',
    ]


def _axis_text(x: float, y: float, s: str, anchor: str = "middle") -> str:
    return (f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="10">'
            f'{escape(s, quote=False)}</text>')


def svg_histogram(values, path, title: str, x_label: str) -> None:
    """Single-series histogram; bar heights scale to the tallest bin."""
    v = np.asarray(list(values), dtype=float)
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    lines = _svg_open(title)
    left, right, top, bottom = 50, 15, 35, 45
    plot_w, plot_h = width - left - right, height - top - bottom
    if len(v) > 0:
        counts, edges = np.histogram(v, bins=_HISTOGRAM_BINS)
        peak = max(int(counts.max()), 1)
        bar_w = plot_w / _HISTOGRAM_BINS
        for i, c in enumerate(counts):
            h = plot_h * c / peak
            x = left + i * bar_w
            y = top + plot_h - h
            lines.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                         f'width="{bar_w - 1:.2f}" height="{h:.2f}" '
                         f'fill="{_PALETTE[0]}"/>')
        lines.append(_axis_text(left, height - 28, f"{edges[0]:.3g}"))
        lines.append(_axis_text(left + plot_w, height - 28, f"{edges[-1]:.3g}"))
        lines.append(_axis_text(left - 6, top + 10, str(peak), "end"))
    lines.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
                 f'y2="{top + plot_h}" stroke="black"/>')
    lines.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{top + plot_h}" stroke="black"/>')
    lines.append(_axis_text(left + plot_w / 2, height - 10, x_label))
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def svg_lines(series, path, title: str, x_label: str, y_label: str) -> None:
    """Multi-series line chart with a dot at each sample.

    Args:
        series: Mapping name -> (xs, ys).
    """
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    lines = _svg_open(title)
    left, right, top, bottom = 55, 15, 35, 45
    plot_w, plot_h = width - left - right, height - top - bottom
    all_x = np.concatenate([np.asarray(xs, dtype=float)
                            for xs, _ in series.values()]) \
        if series else np.array([0.0])
    all_y = np.concatenate([np.asarray(ys, dtype=float)
                            for _, ys in series.values()]) \
        if series else np.array([0.0])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    def sx(x):
        return left + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return top + plot_h - (y - y0) / (y1 - y0) * plot_h

    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys))
        lines.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            lines.append(f'<circle cx="{sx(float(x)):.2f}" '
                         f'cy="{sy(float(y)):.2f}" r="2.5" fill="{color}"/>')
        lines.append(_axis_text(width - right, top + 12 * (i + 1),
                                name, "end").replace(
            'font-size="10"', f'font-size="10" fill="{color}"'))
    lines.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
                 f'y2="{top + plot_h}" stroke="black"/>')
    lines.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{top + plot_h}" stroke="black"/>')
    lines.append(_axis_text(left, height - 28, f"{x0:.3g}"))
    lines.append(_axis_text(left + plot_w, height - 28, f"{x1:.3g}"))
    lines.append(_axis_text(left - 6, top + plot_h, f"{y0:.3g}", "end"))
    lines.append(_axis_text(left - 6, top + 10, f"{y1:.3g}", "end"))
    lines.append(_axis_text(left + plot_w / 2, height - 10, x_label))
    lines.append(_axis_text(14, top - 14, y_label, "start"))
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
