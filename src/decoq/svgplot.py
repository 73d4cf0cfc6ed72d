"""Small SVG line-plot writer with no plotting dependency.

`write_svg` draws a handful of polyline or scatter series on one pair of
axes, with optional logarithmic y scaling, into a self-contained SVG
file.  It builds the whole document before it opens the file, so data
with nothing finite to plot raises ValueError and leaves any file at the
path untouched.  Good enough for quick inspection of decoherence curves
and sweeps; not a general plotting library.
"""

import math
from itertools import groupby

from . import linspace

DEFAULT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 76.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 52.0


def escape(text: str) -> str:
    """text with & < > as character references, for SVG element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _data_range(values, positive_only: bool) -> tuple[float, float]:
    merged = [
        v for vs in values for v in vs
        if math.isfinite(v) and (v > 0.0 or not positive_only)
    ]
    if not merged:
        raise ValueError("no finite data to plot")
    lo, hi = min(merged), max(merged)
    if lo == hi:
        pad = 0.05 * abs(lo) or 0.5  # 0.5 also where 5% of a subnormal lo rounds to 0
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.3g}"


def write_svg(path, series, *, title: str, xlabel: str, ylabel: str, log_y: bool) -> None:
    """Draw the series and write the SVG document to path.

    Each series is a (label, x, y, mode) tuple: a label, lists of floats x
    and y, and mode 'line' or 'points'.  Raises ValueError, before path is
    opened, when no sample is finite (or, with log_y, positive).
    """
    x_lo, x_hi = _data_range([x for _, x, _, _ in series], positive_only=False)
    y_lo, y_hi = _data_range([y for _, _, y, _ in series], positive_only=log_y)
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
        if y_lo == y_hi:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        yy = math.log10(y) if log_y else y
        return _MARGIN_TOP + (y_hi - yy) / (y_hi - y_lo) * plot_h

    def shown(x: float, y: float) -> bool:
        return math.isfinite(x) and math.isfinite(y) and (y > 0.0 or not log_y)

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
    for xt in linspace(x_lo, x_hi, 5):
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
        lo_dec = math.floor(y_lo)
        hi_dec = math.ceil(y_hi)
        decades = list(range(lo_dec, hi_dec + 1))
        step = max(1, (len(decades) - 1) // 5 or 1)
        tick_vals = [10.0**d for d in decades[::step]]
    else:
        tick_vals = linspace(y_lo, y_hi, 5)
    for yt in tick_vals:
        yy = math.log10(yt) if log_y else yt
        if not (y_lo - 1e-9 <= yy <= y_hi + 1e-9):
            continue
        gy = py(yt)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{gy + 4:.2f}" '
            f'text-anchor="end">{escape(_fmt(yt))}</text>'
        )

    # series
    for i, (_, xs, ys, mode) in enumerate(series):
        color = DEFAULT_COLORS[i % len(DEFAULT_COLORS)]
        if mode == "points":
            for xv, yv in zip(xs, ys):
                if shown(xv, yv):
                    parts.append(
                        f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.5" fill="{color}"/>'
                    )
            continue
        # one polyline per run of shown samples: an invalid one breaks the line
        for is_shown, run in groupby(zip(xs, ys), key=lambda xy: shown(*xy)):
            run = list(run)
            if is_shown and len(run) > 1:
                points = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in run)
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
