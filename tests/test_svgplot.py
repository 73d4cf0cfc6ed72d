import math
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from decoq.svgplot import write_svg


def test_write_svg_breaks_lines_and_labels_decades(tmp_path):
    # a NaN sample splits a line series in two, and a log axis is
    # labelled at the decades the data spans
    path = tmp_path / "plot.svg"
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    y = [1e-6, 1e-5, 1e-4, math.nan, 1e-3, 1e-2]
    write_svg(path, [("D", x, y, "line")], title="t", xlabel="x", ylabel="y", log_y=True)
    svg = path.read_text()
    runs = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(points.split()) for points in runs] == [3, 2]
    y_labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    assert y_labels == ["1e-06", "1e-05", "0.0001", "0.001", "0.01"]
    # the decade past 1.5e308 is not a double: it is left out, not raised
    write_svg(path, [("D", [0.0, 1.0], [1e300, 1.5e308], "line")], title="t", xlabel="x",
              ylabel="y", log_y=True)
    y_labels = re.findall(r'text-anchor="end">([^<]*)</text>', path.read_text())
    assert y_labels == [f"1e+{d}" for d in range(300, 309)]


def test_write_svg_gives_coincident_logs_one_decade(tmp_path):
    # 123 and the next double have the same log10, and so do 123 and 123:
    # the axis spans the decade centred on it, labelled at the one power
    # of ten inside
    path = tmp_path / "plot.svg"
    for y in ([123.0, math.nextafter(123.0, math.inf)], [123.0, 123.0]):
        write_svg(path, [("D", [0.0, 1.0], y, "points")], title="t", xlabel="x", ylabel="y",
                  log_y=True)
        svg = path.read_text()
        assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ["100"], y
        assert len(re.findall(r"<circle ", svg)) == 2


def test_write_svg_pads_a_single_subnormal_value(tmp_path):
    # 5% of 5e-324 rounds to 0, which left a zero-width axis and a
    # ZeroDivisionError; the axis spans [-0.5, 0.5] as it does around 0.
    # 1.75e308 + 5% overflows, which left an axis running to inf with nan
    # ticks; the padded end stops at the largest double
    path = tmp_path / "plot.svg"
    for v, ticks in [(5e-324, ["-0.5", "-0.25", "0", "0.25", "0.5"]),
                     (1.75e308, ["1.66e+308", "1.7e+308", "1.73e+308", "1.76e+308", "1.8e+308"])]:
        write_svg(path, [("D", [v], [v], "points")], title="t", xlabel="x", ylabel="y",
                  log_y=False)
        svg = path.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ticks
        assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:5] == ticks
        assert len(re.findall(r"<circle ", svg)) == 1


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log_y"])
@pytest.mark.parametrize("mode", ["line", "points"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_write_svg_pads_a_span_of_one_subnormal_ulp(tmp_path, axis, mode, log_y):
    # lo != hi, but hi/2 - lo/2 rounds to 0, which _pixels divided by
    # (curve --t-max 5e-324 raised ZeroDivisionError); the axis is padded as
    # a single value is, so a linear one spans [-0.5, 0.5]
    path = tmp_path / "plot.svg"
    tiny, other = [0.0, 0.0, 5e-324], [1.0, 2.0, 4.0]  # the samples of that curve
    x, y = (tiny, other) if axis == "x" else (other, tiny)
    write_svg(path, [("D", x, y, mode)], title="t", xlabel="x", ylabel="y", log_y=log_y)
    svg = path.read_text()
    assert "nan" not in svg and "inf" not in svg
    ticks = ["-0.5", "-0.25", "0", "0.25", "0.5"]
    if axis == "x":
        assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:5] == ticks
    elif not log_y:
        assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ticks
    # on a log axis 0 is not drawn, which leaves one y sample: a marker but no line
    one_sample = axis == "y" and log_y
    assert svg.count("<circle ") >= (mode == "points")
    assert svg.count("<polyline ") == (mode == "line" and not one_sample)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, sys.float_info.min, 1.0, sys.float_info.max,
            -sys.float_info.max, math.inf, -math.inf, math.nan]
samples = st.lists(st.one_of(st.sampled_from(EXTREMES), st.floats()), max_size=6)


@st.composite
def plots(draw):
    """1 to 3 series of extreme, infinite and nan samples, each x as long as its y."""
    series = []
    for i in range(draw(st.integers(1, 3))):
        ys = draw(samples)
        xs = draw(st.lists(st.one_of(st.sampled_from(EXTREMES), st.floats()),
                           min_size=len(ys), max_size=len(ys)))
        series.append((f"s{i}", xs, ys, draw(st.sampled_from(["line", "points"]))))
    return series


@settings(max_examples=500, deadline=None)
@given(series=plots(), log_y=st.booleans())
def test_write_svg_raises_nothing_but_value_error(series, log_y):
    try:
        write_svg(os.devnull, series, title="t", xlabel="x", ylabel="y", log_y=log_y)
    except ValueError as exc:
        assert "no finite data to plot" in str(exc)


def _to_pixels(svg, xs, ys, x_range, y_range, log_y):
    """The pixel points (X, Y) of samples (x, y) on axes that span x_range and y_range."""
    box = re.search(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)"', svg)
    left, top, width, height = map(float, box.groups())
    f = math.log10 if log_y else float
    (x_lo, x_hi), (y_lo, y_hi) = x_range, map(f, y_range)
    return [(left + (xv - x_lo) / (x_hi - x_lo) * width,
             top + (y_hi - f(yv)) / (y_hi - y_lo) * height) for xv, yv in zip(xs, ys)]


def _assert_markers_cover(svg, full):
    """Every drawn marker is a sample, and every sample lies less than 1 pixel
    across and 2.5 up or down from a drawn marker."""
    drawn = {}
    for cx, cy in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg):
        drawn.setdefault(int(float(cx)), []).append((float(cx), float(cy)))

    def near(point, dx, dy):
        column = int(point[0])
        return any(abs(gx - point[0]) < dx and abs(gy - point[1]) < dy
                   for c in (column - 1, column, column + 1) for gx, gy in drawn.get(c, ()))

    full_columns = {}
    for p in full:
        full_columns.setdefault(int(p[0]), []).append(p)
    for d in (d for ds in drawn.values() for d in ds):
        assert any(abs(gx - d[0]) <= 0.006 and abs(gy - d[1]) <= 0.006
                   for c in (int(d[0]) - 1, int(d[0]), int(d[0]) + 1)
                   for gx, gy in full_columns.get(c, ()))
    assert all(near(p, 1.006, 2.506) for p in full)


@pytest.mark.parametrize("log_y", [False, True])
def test_write_svg_keeps_four_samples_per_pixel_column(tmp_path, log_y):
    # 10^5 oscillating samples over 620 pixel columns: the file stays small,
    # and each column still spans its samples' lowest and highest y.  Each
    # column's x stay 0.25 from its edges, so a 2-decimal x names its column.
    # On a log axis the line is 10**y, which oscillates over three decades
    path = tmp_path / "plot.svg"
    per_column = 161
    x = [c + 0.25 + 0.5 * j / (per_column - 1) for c in range(620) for j in range(per_column)]
    line = [(1.0 + 0.5 * math.sin(xv / 40.0)) * math.sin(7.3 * i) for i, xv in enumerate(x)]
    point_x = x[::10]
    points = [1.5 * (xv / 620.0) ** 8 for xv in point_x]
    # x from 0 to 620 spans the 620-pixel plot box: data x sits at pixel left + x
    x, line = [0.0] + x + [620.0], [0.0] + line + [0.0]
    if log_y:
        line = [10.0**v for v in line]
    write_svg(path, [("D", x, line, "line"), ("P", point_x, points, "points")],
              title="t", xlabel="x", ylabel="y", log_y=log_y)
    assert path.stat().st_size < 300_000
    svg = path.read_text()
    x_range, y_range = (0.0, 620.0), (min(line + points), max(line + points))

    def extremes(points):
        """column -> (lowest, highest) pixel y of the pixel points in it."""
        out = {}
        for gx, gy in points:
            lo, hi = out.get(int(gx), (math.inf, -math.inf))
            out[int(gx)] = (min(lo, gy), max(hi, gy))
        return out

    (drawn_line,) = re.findall(r'<polyline points="([^"]*)"', svg)
    got = extremes(tuple(map(float, p.split(","))) for p in drawn_line.split())
    want = extremes(_to_pixels(svg, x, line, x_range, y_range, log_y))
    assert got.keys() == want.keys()
    for column, (lo, hi) in want.items():
        assert got[column] == pytest.approx((lo, hi), abs=0.006)
    _assert_markers_cover(svg, _to_pixels(svg, point_x, points, x_range, y_range, log_y))


@pytest.mark.parametrize("log_y", [False, True])
def test_write_svg_drops_only_markers_near_a_kept_one(tmp_path, log_y):
    # D(t) of a 20,000-sample curve rises steeply: on a log axis its first
    # pixel column spans decades, and each stretch of it keeps a marker
    path = tmp_path / "plot.svg"
    x = [0.5 * (i + 1) / 20_000 for i in range(20_000)]
    y = [xv * xv for xv in x]
    write_svg(path, [("D", x, y, "points")], title="t", xlabel="x", ylabel="y", log_y=log_y)
    svg = path.read_text()
    assert len(re.findall(r"<circle ", svg)) < 1_000
    _assert_markers_cover(svg, _to_pixels(svg, x, y, (x[0], x[-1]), (y[0], y[-1]), log_y))


def test_write_svg_maps_a_span_past_the_largest_double(tmp_path):
    # 1e308 - (-1e308) overflows; halved, the samples and ticks stay finite
    path = tmp_path / "plot.svg"
    v = [-1e308, 0.0, 1e308]
    write_svg(path, [("D", v, v, "line"), ("P", v, v, "points")],
              title="t", xlabel="x", ylabel="y", log_y=False)
    svg = path.read_text()
    assert "nan" not in svg and "inf" not in svg
    (drawn_line,) = re.findall(r'<polyline points="([^"]*)"', svg)
    assert drawn_line == "76.00,428.00 386.00,234.00 696.00,40.00"
    assert len(re.findall(r"<circle ", svg)) == 3
    assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:5] == [
        "-1e+308", "-5e+307", "0", "5e+307", "1e+308"]
