"""The relaxation-limited window that `idle_window` reports beside the dephasing one."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from decoq.bath import BathSpec
from decoq.evolution import idle_window
from decoq.units import TIME_UNIT_S, _to_ps, temperature_to_beta
from golden.cases import BATHS
from references import mpmath_born_deviation, mpmath_relaxation, on_the_rise

# the benchmark point, as the command line's defaults hold it
BENCH = {"threshold": 1e-4, "eta": 1e-6, "omega_c": 200.0, "beta": temperature_to_beta(30.0),
         "s": 1.0, "e_j": 51.8, "t_max": 10.0}


def window_at(**settings_):
    """idle_window at the benchmark point with settings_ replaced."""
    kw = {**BENCH, **settings_}
    spec = BathSpec(kw["eta"], kw["omega_c"], kw["beta"], kw["s"])
    return idle_window(kw["threshold"], spec, kw["e_j"], kw["t_max"])


class TestRelaxationWindow:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.0, 4.0),
        temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
        e_j=st.floats(5.0, 500.0),
        omega_c=st.floats(50.0, 1e4),
        eta=st.floats(1e-9, 1e-5),
        threshold=st.floats(1e-6, 0.4),
    )
    def test_closed_form_matches_mpmath(self, s, temp_mk, e_j, omega_c, eta, threshold):
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        spec = BathSpec(eta=eta, omega_c=omega_c, beta=beta, s=s)
        window = idle_window(threshold, spec, e_j, on_the_rise(10.0, spec))
        rate, tau = mpmath_relaxation(spec, e_j, threshold)
        assert window.relaxation_rate == pytest.approx(rate, rel=1e-13, abs=0.0)
        assert window.tau_relax == pytest.approx(tau, rel=1e-13, abs=0.0)
        # tld's tau_ld_relax_ps and ratio_relax_over_gate, as it forms them
        assert _to_ps(window.tau_relax) == pytest.approx(
            tau * TIME_UNIT_S * 1e12, rel=1e-13, abs=0.0)
        assert window.tau_relax / window.tau_g == pytest.approx(tau * e_j, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "settings_",
        [
            {"e_j": 1e5, "omega_c": 50.0},  # J(E_J) underflows to 0
            {"e_j": 1e5, "s": 80.0},  # E_J^s overflows
            {"eta": 0.0},  # no coupling, no relaxation
            # tau_M = 5.1e305 units is a double, but not in ps
            {"e_j": 1e-300, "beta": math.inf, "eta": 1.6e-7, "threshold": 0.4},
        ],
    )
    def test_rate_that_is_not_a_double_reports_null(self, settings_):
        window = window_at(**settings_)
        assert (window.relaxation_rate, window.tau_relax) == (None, None)
        assert window.window_set_by == (None if window.tau_ld is None else "dephasing")

    def test_window_set_by_the_shorter_window(self):
        # at the benchmark point tau_M = 0.398 units and tau_ld = 5.858; with
        # no crossing below t_max = 0.3 neither window is known to be shorter
        assert window_at().window_set_by == "relaxation"
        assert window_at(t_max=1.0).window_set_by == "relaxation"
        assert window_at(t_max=0.3).window_set_by is None
        # s = 3 crosses at 0.0058 units, before tau_M = 0.126
        s3 = window_at(**BATHS["s3"])
        assert s3.window_set_by == "dephasing"

    def test_matches_the_first_crossing_of_the_born_deviation(self):
        # a seeded grid over T in [10, 300] mK, E_J in [20, 150], omega_c in
        # [50, 1000] and eta in [1e-7, 1e-5]; the golden rule holds once
        # E_J tau >> 1, and the largest gap, 11.1%, is at E_J tau = 7
        rng = random.Random(13)
        gaps = []
        for _ in range(5):
            temp_mk, e_j = rng.uniform(10.0, 300.0), rng.uniform(20.0, 150.0)
            omega_c = 10.0 ** rng.uniform(math.log10(50.0), 3.0)
            spec = BathSpec(eta=10.0 ** rng.uniform(-7.0, -5.0), omega_c=omega_c,
                            beta=temperature_to_beta(temp_mk))
            tau_m = idle_window(1e-4, spec, e_j, 10.0).tau_relax
            crossing = float(mpmath.findroot(
                lambda t: mpmath_born_deviation(t, spec, e_j) - 1e-4, (tau_m, 1.02 * tau_m)))
            assert mpmath_born_deviation(0.5 * crossing, spec, e_j) < 1e-4
            gaps.append(tau_m / crossing - 1.0)
        assert max(map(abs, gaps)) <= 0.112
