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
    assert temperature_to_beta(30.0) == pytest.approx(0.3868172824855826, rel=1e-12)


def test_beta_scaling():
    assert temperature_to_beta(10.0) == pytest.approx(3.0 * temperature_to_beta(30.0), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
def test_beta_rejects_bad_temperature(bad):
    with pytest.raises(ValueError):
        temperature_to_beta(bad)


@given(st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
def test_beta_inverts_temperature(temp_mk):
    beta = temperature_to_beta(temp_mk)
    assert 1.0 / (beta * KB_UEV_PER_K * temp_mk * 1e-3) == pytest.approx(1.0, rel=1e-12)
