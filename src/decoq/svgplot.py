"""Small SVG line-plot writer with no plotting dependency.

Produces self-contained SVG files: a handful of polyline or scatter
series on a single pair of axes, with optional logarithmic y scaling.
Good enough for quick inspection of decoherence curves and sweeps; not a
general plotting library.
"""

import math
from dataclasses import dataclass
from html import escape

from ._np import linspace

DEFAULT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 76.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 52.0


@dataclass(frozen=True)
class Series:
    """One plotted series; mode is 'line' or 'points'."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    mode: str = "line"

    def __post_init__(self):
        x = tuple(map(float, self.x))
        y = tuple(map(float, self.y))
        if len(x) != len(y) or not x:
            raise ValueError("series needs matching non-empty x and y")
        if self.mode not in ("line", "points"):
            raise ValueError(f"mode must be 'line' or 'points', got {self.mode!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _data_range(values, positive_only: bool) -> tuple[float, float]:
    merged = [
        v for vs in values for v in vs
        if math.isfinite(v) and (v > 0.0 or not positive_only)
    ]
    if not merged:
        raise ValueError("no finite data to plot")
    lo, hi = min(merged), max(merged)
    if lo == hi:
        pad = 0.5 if lo == 0.0 else 0.05 * abs(lo)
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.3g}"


def render_svg(
    series,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = False,
) -> str:
    """Render the series list to an SVG document string."""
    series = list(series)
    if not series:
        raise ValueError("at least one series is required")
    x_lo, x_hi = _data_range([s.x for s in series], positive_only=False)
    y_lo, y_hi = _data_range([s.y for s in series], positive_only=log_y)
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
            f'text-anchor="middle">{escape(_fmt(xt), quote=False)}</text>'
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
        gy = _MARGIN_TOP + (y_hi - yy) / (y_hi - y_lo) * plot_h
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{gy + 4:.2f}" '
            f'text-anchor="end">{escape(_fmt(yt), quote=False)}</text>'
        )

    # series
    for i, s in enumerate(series):
        color = DEFAULT_COLORS[i % len(DEFAULT_COLORS)]
        if s.mode == "points":
            for xv, yv in zip(s.x, s.y):
                if shown(xv, yv):
                    parts.append(
                        f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.5" fill="{color}"/>'
                    )
        else:
            # break the polyline at every invalid sample
            run: list[str] = []
            for xv, yv in zip(s.x, s.y):
                if shown(xv, yv):
                    run.append(f"{px(xv):.2f},{py(yv):.2f}")
                elif run:
                    if len(run) > 1:
                        parts.append(
                            f'<polyline points="{" ".join(run)}" fill="none" '
                            f'stroke="{color}" stroke-width="1.6"/>'
                        )
                    run = []
            if len(run) > 1:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )

    # labels and legend
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{escape(title, quote=False)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle">{escape(xlabel, quote=False)}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {cy:.1f})">{escape(ylabel, quote=False)}</text>'
        )
    for i, s in enumerate(series):
        color = DEFAULT_COLORS[i % len(DEFAULT_COLORS)]
        ly = _MARGIN_TOP + 16 + 18 * i
        lx = _MARGIN_LEFT + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}">{escape(s.label, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, series, **kwargs) -> None:
    """Render and write straight to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(series, **kwargs))
