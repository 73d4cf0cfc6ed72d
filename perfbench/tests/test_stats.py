import statistics

import pytest

import stats


def test_tail_leaves_ten_samples_beyond():
    xs = list(range(1, 31))
    value, pct, n = stats.tail(reversed(xs))
    assert (value, n) == (20, 30)
    assert sum(1 for x in xs if x > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_with_exactly_eleven_samples_is_the_smallest():
    value, pct, n = stats.tail([5.0] + [9.0] * 10)
    assert value == 5.0 and n == 11


def test_tail_below_eleven_samples_falls_back_to_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartiles_match_statistics_quantiles():
    xs = [4.0, 1.0, 7.0, 3.0, 9.0, 2.0]
    q1, med, q3 = stats.quartiles(xs)
    assert [q1, med, q3] == statistics.quantiles(xs, n=4)
    assert stats.spread(xs) == pytest.approx((q3 - q1) / med)


def _runs(values):
    return {seed: v for seed, v in enumerate(values)}


def test_compare_verdicts():
    parent = _runs([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0])
    same = stats.compare(parent, parent, 0.1)
    assert same["verdict"] == "no change" and same["won"] == 0
    faster = stats.compare(parent, _runs([v * 0.8 for v in parent.values()]), 0.1)
    assert faster["verdict"] == "improved" and faster["won"] == 10
    slower = stats.compare(parent, _runs([v * 1.2 for v in parent.values()]), 0.1)
    assert slower["verdict"] == "regressed"
    noisy = _runs([5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 10.0])
    assert stats.compare(parent, noisy, 0.1)["verdict"] == "unresolved"


def test_compare_higher_is_better():
    parent = _runs([1.0] * 10)
    v = stats.compare(parent, _runs([1.5] * 10), 0.1, better="higher")
    assert v["verdict"] == "improved" and v["won"] == 10
