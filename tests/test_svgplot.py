import math
import re

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


def test_write_svg_gives_coincident_logs_one_decade(tmp_path):
    # 123 and the next double have the same log10: the axis spans the
    # decade centred on it, labelled at the one power of ten inside
    path = tmp_path / "plot.svg"
    y = [123.0, math.nextafter(123.0, math.inf)]
    write_svg(path, [("D", [0.0, 1.0], y, "points")], title="t", xlabel="x", ylabel="y",
              log_y=True)
    svg = path.read_text()
    assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ["100"]
    assert len(re.findall(r"<circle ", svg)) == 2


def test_write_svg_pads_a_single_subnormal_value(tmp_path):
    # 5% of 5e-324 rounds to 0, which left a zero-width axis and a
    # ZeroDivisionError; the axis spans [-0.5, 0.5] as it does around 0
    path = tmp_path / "plot.svg"
    write_svg(path, [("D", [5e-324], [5e-324], "points")], title="t", xlabel="x", ylabel="y",
              log_y=False)
    svg = path.read_text()
    assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == [
        "-0.5", "-0.25", "0", "0.25", "0.5"]
    assert len(re.findall(r"<circle ", svg)) == 1
