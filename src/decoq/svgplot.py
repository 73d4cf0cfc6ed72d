"""Small SVG line-plot writer with no plotting dependency.

`write_svg` draws a handful of polyline or scatter series on one pair of
axes into a self-contained SVG file.  A logarithmic y axis is a linear
one over log10 of the data (0 and below are not drawn), labelled at
powers of ten; a flat series spans one decade there.  It builds the
whole document before it opens the file, so data with nothing finite
to plot raises ValueError and leaves any file at the path untouched.
However many samples a series has, a line draws at most four
consecutive ones per pixel column and a scatter one marker per cell 1
pixel wide and 2.5 tall.  Good enough for quick inspection of
decoherence curves and sweeps; not a general plotting library.
"""

import math
import sys
from itertools import groupby

from . import linspace

DEFAULT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 76.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 52.0
_MARKER_R = 2.5


def escape(text: str) -> str:
    """text with & < > as character references, for SVG element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _data_range(values, decades: bool) -> tuple[float, float]:
    merged = [v for vs in values for v in vs if math.isfinite(v)]
    if not merged:
        raise ValueError("no finite data to plot")
    lo, hi = min(merged), max(merged)
    if hi / 2 - lo / 2 == 0.0:  # lo == hi, or one subnormal ulp apart: _pixels divides by it
        # half a decade on a log axis; on a linear one 5% of |lo|, or 0.5
        # where that rounds to 0 (lo subnormal), kept to finite ends
        pad = 0.5 if decades else (0.05 * abs(lo) or 0.5)
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.3g}"


def _m4(points) -> list:
    """Of each run of pixel points (X, Y) with one int(X), the first, lowest, highest and last.

    The M4 reduction (Jugel et al., PVLDB 7(10), 2014): joined in order, they
    draw the pixels the whole run's polyline does.
    """
    kept = []
    for _, run in groupby(points, key=lambda p: int(p[0])):
        run = list(run)
        ys = [gy for _, gy in run]
        ends = sorted({0, ys.index(min(ys)), ys.index(max(ys)), len(run) - 1})
        kept += [run[i] for i in ends]
    return kept


def _markers(points) -> list:
    """The first pixel point (X, Y) in each cell one pixel wide and _MARKER_R tall.

    A dropped marker's centre lies less than 1 pixel across and _MARKER_R
    up or down from a kept one's, so no stretch of a scatter loses its markers.
    """
    kept = {}
    for gx, gy in points:
        kept.setdefault((int(gx), int(gy / _MARKER_R)), (gx, gy))
    return list(kept.values())


def _ticks(lo: float, hi: float) -> list[float]:
    """5 evenly spaced ticks from lo to hi, finite also where hi - lo is not."""
    return [2.0 * v for v in linspace(lo / 2, hi / 2, 5)]


def _pixels(start: float, end: float, origin: float, length: float):
    """Data start to pixel origin, end to origin + length; on halves, so a
    span past the largest double still maps to finite pixels."""
    half_span = end / 2 - start / 2
    return lambda v: origin + (v / 2 - start / 2) / half_span * length


def write_svg(path, series, *, title: str, xlabel: str, ylabel: str, log_y: bool) -> None:
    """Draw the series and write the SVG document to path.

    Each series is a (label, x, y, mode) tuple: a label, lists of floats x
    and y, and mode 'line' or 'points'.  Raises ValueError, before path is
    opened, when no sample is finite (or, with log_y, positive).
    """
    if log_y:
        series = [(label, xs, [math.log10(v) if v > 0.0 else math.nan for v in ys], mode)
                  for label, xs, ys, mode in series]
    x_lo, x_hi = _data_range([x for _, x, _, _ in series], decades=False)
    y_lo, y_hi = _data_range([y for _, _, y, _ in series], decades=log_y)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    px = _pixels(x_lo, x_hi, _MARGIN_LEFT, plot_w)
    py = _pixels(y_hi, y_lo, _MARGIN_TOP, plot_h)

    def shown(x: float, y: float) -> bool:
        return math.isfinite(x) and math.isfinite(y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    # axes box and ticks
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for xt in _ticks(x_lo, x_hi):
        gx = px(xt)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_TOP}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{escape(_fmt(xt))}</text>'
        )
    if log_y:
        decades = range(math.floor(y_lo), math.ceil(y_hi) + 1)
        y_ticks = decades[::max(1, (len(decades) - 1) // 5)]
    else:
        y_ticks = _ticks(y_lo, y_hi)
    for yt in y_ticks:
        if not (y_lo - 1e-9 <= yt <= y_hi + 1e-9):
            continue
        gy = py(yt)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{gy + 4:.2f}" '
            f'text-anchor="end">{escape(_fmt(10.0**yt if log_y else yt))}</text>'
        )

    # series
    for i, (_, xs, ys, mode) in enumerate(series):
        color = DEFAULT_COLORS[i % len(DEFAULT_COLORS)]
        if mode == "points":
            for gx, gy in _markers((px(xv), py(yv)) for xv, yv in zip(xs, ys) if shown(xv, yv)):
                parts.append(f'<circle cx="{gx:.2f}" cy="{gy:.2f}" r="{_MARKER_R}" fill="{color}"/>')
            continue
        # one polyline per run of shown samples: an invalid one breaks the line
        for is_shown, run in groupby(zip(xs, ys), key=lambda xy: shown(*xy)):
            run = _m4((px(xv), py(yv)) for xv, yv in run) if is_shown else ()
            if len(run) > 1:
                points = " ".join(f"{gx:.2f},{gy:.2f}" for gx, gy in run)
                parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )

    # labels and legend
    cy = _MARGIN_TOP + plot_h / 2
    parts += [
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{escape(title)}</text>',
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">{escape(xlabel)}</text>',
        f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {cy:.1f})">{escape(ylabel)}</text>',
    ]
    for i, (label, *_) in enumerate(series):
        color = DEFAULT_COLORS[i % len(DEFAULT_COLORS)]
        ly = _MARGIN_TOP + 16 + 18 * i
        lx = _MARGIN_LEFT + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}">{escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
