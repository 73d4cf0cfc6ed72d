import pytest

import tracing


def span(layer, start, end, parent=-1, failed=False, **attrs):
    return [layer, start, end, parent, failed, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("evolution.low_decoherence_time", 1.0, 4.0, 0),
        span("bath.dephasing_exponent", 2.0, 3.0, 1),
        span("svgplot.write_svg", 5.0, 6.0, 0),
        # overlaps the previous child; the union is [5, 6.5]
        span("svgplot.write_svg", 5.5, 6.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 1.5 - 3.0, 2.0, 1.0, 1.0, 1.0])


def test_busy_time_does_not_count_a_layer_twice():
    spans = [
        span("oracle.error_scaling", 0.0, 5.0),
        span("oracle.evolve_exact", 1.0, 2.0, 0),
        span("oracle.evolve_exact", 6.0, 7.0),
    ]
    assert tracing.busy_time(spans, "oracle.") == pytest.approx(6.0)
    assert tracing.busy_time(spans, "oracle.evolve_exact") == pytest.approx(2.0)


def test_recorder_nests_spans_and_marks_failures():
    rec = tracing.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = rec.wrap("bath.inner", inner)
    outer_t = rec.wrap("cli.main", lambda xs: [inner_t(x) for x in xs])
    assert outer_t([1, 2]) == [1, 2]
    with pytest.raises(ValueError):
        outer_t([3, -1])
    layers = [(s[0], s[3], s[4]) for s in rec.spans]
    assert layers == [
        ("cli.main", -1, False), ("bath.inner", 0, False), ("bath.inner", 0, False),
        ("cli.main", -1, True), ("bath.inner", 3, False), ("bath.inner", 3, True),
    ]


def test_parse_importtime_takes_cumulative_seconds():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1126 |     334875 |         scipy.special",
        "import time:       876 |     734442 |     scipy.integrate",
        "import time:      1073 |     896697 | decoq",
        "some other stderr line",
    ])
    assert tracing.parse_importtime(text) == {
        "decoq": 0.896697, "scipy.integrate": 0.734442, "scipy.special": 0.334875,
    }
