import math

import pytest
from hypothesis import given, strategies as st

from decoq.units import (
    HBAR_UEV_S,
    KB_UEV_PER_K,
    TIME_UNIT_S,
    temperature_to_beta,
)


def test_constants():
    assert HBAR_UEV_S == 6.582119e-10
    assert KB_UEV_PER_K == 86.17333
    assert TIME_UNIT_S == HBAR_UEV_S


def test_beta_at_30_mk():
    # frozen from 1/(86.17333 ueV/K * 0.030 K)
    assert temperature_to_beta(30.0) == pytest.approx(0.3868172824855826, rel=1e-12, abs=0.0)


def test_beta_scaling():
    assert temperature_to_beta(10.0) == pytest.approx(3.0 * temperature_to_beta(30.0),
                                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
def test_beta_rejects_bad_temperature(bad):
    with pytest.raises(ValueError):
        temperature_to_beta(bad)


@pytest.mark.parametrize("temp_mk", [5e-324, 2.5e-323])
def test_beta_is_infinite_where_kb_t_underflows(temp_mk):
    # kB T rounds to 0 here; a little warmer, 1/(kB T) overflows to inf, so
    # both are a bath at T = 0
    assert temperature_to_beta(temp_mk) == math.inf
    assert temperature_to_beta(1e-320) == math.inf


def test_beta_rejects_a_temperature_whose_kb_t_overflows():
    # 1e308 mK used to give beta = 0.0, which BathSpec then blamed
    hottest = 2.0861363195112867e306
    assert temperature_to_beta(hottest) == 1.0 / (KB_UEV_PER_K * hottest * 1e-3) > 0.0
    for temp_mk in (math.nextafter(hottest, math.inf), 1e308):
        with pytest.raises(ValueError) as caught:
            temperature_to_beta(temp_mk)
        assert str(caught.value) == ("temperature must be at most 2.0861363195112867e+306 mK "
                                     f"for kB*T to be a double, got {temp_mk}")


@given(st.floats(min_value=3e-323, max_value=1e300))
def test_beta_is_the_reciprocal_wherever_kb_t_is_not_zero(temp_mk):
    assert temperature_to_beta(temp_mk) == 1.0 / (KB_UEV_PER_K * temp_mk * 1e-3)


@given(st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
def test_beta_inverts_temperature(temp_mk):
    beta = temperature_to_beta(temp_mk)
    assert 1.0 / (beta * KB_UEV_PER_K * temp_mk * 1e-3) == pytest.approx(1.0, rel=1e-12, abs=0.0)
