"""The mpmath reference against independent forms of the same quantities."""

import math

import pytest

import reference as ref
from decoq.bath import BathSpec, dephasing_exponent_zero_t


@pytest.mark.parametrize("t", [1e-3, 0.5, 40.0])
def test_reference_tends_to_the_zero_temperature_closed_form(t):
    spec = BathSpec(eta=1e-6, omega_c=200.0, beta=math.inf)
    zero_t = dephasing_exponent_zero_t(t, spec)
    gaps = [ref.b2(t, ref.Bath(1e-6, 200.0, temp)) / zero_t - 1.0 for temp in (1e-2, 1e-3, 1e-4)]
    # the thermal correction is positive and vanishes like T^2
    assert all(g > 0.0 for g in gaps)
    assert gaps[1] / gaps[0] == pytest.approx(0.01, rel=0.05)
    assert gaps[2] / gaps[1] == pytest.approx(0.01, rel=0.05)


@pytest.mark.parametrize("s,temp,omega_c,t", [
    (1, 30.0, 200.0, 0.5), (1, 300.0, 1e4, 1000.0), (2, 1.0, 1e4, 0.01),
    (2, 200.0, 1e4, 1000.0), (3, 100.0, 1000.0, 20.0),
])
def test_closed_forms_agree_with_the_direct_integral(s, temp, omega_c, t):
    bath = ref.Bath(1e-6, omega_c, temp, s)
    assert ref.b2_closed(t, bath) == pytest.approx(ref.b2_direct(t, bath), rel=1e-15)


def test_tau_ld_at_the_benchmark_point():
    tau, d_end = ref.tau_ld(1e-4, ref.Bath(1e-6, 200.0, 30.0), 10.0)
    assert d_end is None
    assert tau == pytest.approx(5.858, rel=1e-3)
    d = ref.d_of_b2(ref.b2(tau, ref.Bath(1e-6, 200.0, 30.0)))
    assert d == pytest.approx(1e-4, rel=1e-12)


def test_tau_ld_reports_no_crossing_with_d_at_t_max():
    tau, d_end = ref.tau_ld(1e-3, ref.Bath(1e-7, 200.0, 30.0, 2), 0.01)
    assert tau is None and 0.0 < d_end < 1e-3


def test_mode_sum_and_reduced_map():
    b2 = ref.b2_modes(0.3, [16.0], [0.25], 30.0)
    beta = 1.0 / (ref.KB_UEV_PER_K * 0.030)
    assert b2 == pytest.approx(8 * 0.25 / 256 * math.sin(2.4) ** 2 / math.tanh(8 * beta), rel=1e-14)
    rho = [[0.5, 0.5], [0.5, 0.5]]
    out = ref.reduced_map(rho, 0.0, 0.0, 51.8)
    assert out == [[pytest.approx(0.5), pytest.approx(0.5)], [pytest.approx(0.5), pytest.approx(0.5)]]
