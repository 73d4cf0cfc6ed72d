"""The relaxation-limited window that `tld` reports beside the dephasing one."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from decoq.cli import RunConfig
from decoq.cli.commands import _relaxation_window, _tld_report
from decoq.units import TIME_UNIT_S, temperature_to_beta

RELAX_KEYS = ("relaxation_rate", "tau_ld_relax_units", "tau_ld_relax_ps", "ratio_relax_over_gate")


def mpmath_relaxation(cfg, dps=30):
    """Gamma_down and tau_M of the golden rule at E_J, in mpmath."""
    with mpmath.workdps(dps):
        e_j, thr = mpmath.mpf(cfg.e_j), mpmath.mpf(cfg.threshold)
        j = cfg.eta * e_j ** mpmath.mpf(cfg.s) * mpmath.exp(-e_j / mpmath.mpf(cfg.omega_c))
        beta = temperature_to_beta(cfg.temp_mk) if cfg.temp_mk > 0.0 else math.inf
        n = 0 if math.isinf(beta) else 1 / mpmath.expm1(mpmath.mpf(beta) * e_j)
        rate, rate_1 = 2 * mpmath.pi * j * (1 + n), 2 * mpmath.pi * j * (1 + 2 * n)
        return float(rate), float(-mpmath.log1p(-thr * rate_1 / rate) / rate_1)


def mpmath_born_deviation(t, cfg, dps=15):
    """The excited state's deviation to first order in eta, in its omega form.

    D_e(t) = int dw J(w) [(1 + n(w)) F_t(w - E_J) + n(w) F_t(w + E_J)],
    F_t(x) = 4 sin^2(x t/2)/x^2.  Up to w1 = E_J + 2 pi/t the integrand is
    integrated as written; past it F_t = 2 (1 - cos x t)/x^2, and the
    oscillating part is taken on the vertical ray w1 + i u, where it decays
    like exp(-u t): its factor J n/x^2 has no pole with Re w >= w1.
    """
    with mpmath.workdps(dps):
        eta, wc, e_j, t = (mpmath.mpf(v) for v in (cfg.eta, cfg.omega_c, cfg.e_j, t))
        beta = mpmath.mpf(temperature_to_beta(cfg.temp_mk))

        def weights(w):  # J(w) (1 + n(w)) and J(w) n(w)
            j = eta * w**cfg.s * mpmath.exp(-w / wc)
            n = 1 / mpmath.expm1(beta * w)
            return j * (1 + n), j * n

        def head(w):
            up, down = weights(w)
            x1, x2 = w - e_j, w + e_j
            f1 = t**2 if x1 == 0 else 4 * mpmath.sin(x1 * t / 2) ** 2 / x1**2
            return up * f1 + down * 4 * mpmath.sin(x2 * t / 2) ** 2 / x2**2

        def poles(w):
            up, down = weights(w)
            return up / (w - e_j) ** 2, down / (w + e_j) ** 2

        def ray(u):
            w = mpmath.mpc(0, u) + w1
            g1, g2 = poles(w)
            osc = g1 * mpmath.expj((w1 - e_j) * t) + g2 * mpmath.expj((w1 + e_j) * t)
            return osc * mpmath.exp(-u * t) * 1j

        period = 2 * mpmath.pi / t
        w1 = e_j + period
        below = [e_j - k * period for k in range(int(e_j / period) + 1)]
        inner = mpmath.quad(head, [0] + sorted(w for w in below if w > 0) + [w1])
        smooth = mpmath.quad(lambda w: 2 * sum(poles(w)), [w1, max(w1, wc), max(w1, 8 * wc),
                                                          mpmath.inf])
        osc = mpmath.quad(ray, [0, 2 / t, 16 / t, mpmath.inf])
        return float(inner + smooth - 2 * mpmath.re(osc))


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
        # temp_mk = 0 is beta = inf, which RunConfig does not take but the rates do
        cfg = RunConfig(e_j=e_j, temp_mk=temp_mk, omega_c=omega_c, eta=eta, s=s,
                        threshold=threshold)
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        window = _relaxation_window(cfg, beta, 1.0 / e_j)
        rate, tau = mpmath_relaxation(cfg)
        assert window["relaxation_rate"] == pytest.approx(rate, rel=1e-13, abs=0.0)
        assert window["tau_ld_relax_units"] == pytest.approx(tau, rel=1e-13, abs=0.0)
        assert window["tau_ld_relax_ps"] == pytest.approx(
            tau * TIME_UNIT_S * 1e12, rel=1e-13, abs=0.0)
        assert window["ratio_relax_over_gate"] == pytest.approx(tau * e_j, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "settings_",
        [
            {"e_j": 1e5, "omega_c": 50.0},  # J(E_J) underflows to 0
            {"e_j": 1e5, "s": 80.0},  # E_J^s overflows
            {"eta": 0.0},  # no coupling, no relaxation
        ],
    )
    def test_rate_that_is_not_a_double_reports_null(self, settings_):
        report = _tld_report(RunConfig(**settings_))
        assert [report[key] for key in RELAX_KEYS] == [None] * 4
        assert report["window_set_by"] == (None if report["no_crossing"] else "dephasing")

    def test_window_set_by_the_shorter_window(self):
        # at the benchmark point tau_M = 0.398 units and tau_ld = 5.858; with
        # no crossing below t_max = 0.3 neither window is known to be shorter
        assert _tld_report(RunConfig())["window_set_by"] == "relaxation"
        assert _tld_report(RunConfig(t_max=1.0))["window_set_by"] == "relaxation"
        assert _tld_report(RunConfig(t_max=0.3))["window_set_by"] is None
        # s = 3 crosses at 0.0058 units, before tau_M = 0.126
        s3 = RunConfig(s=3.0, eta=1e-9, threshold=8.5e-5, t_max=1000.0)
        assert _tld_report(s3)["window_set_by"] == "dephasing"

    def test_matches_the_first_crossing_of_the_born_deviation(self):
        # a seeded grid over T in [10, 300] mK, E_J in [20, 150], omega_c in
        # [50, 1000] and eta in [1e-7, 1e-5]; the golden rule holds once
        # E_J tau >> 1, and the largest gap, 11.1%, is at E_J tau = 7
        rng = random.Random(13)
        gaps = []
        for _ in range(5):
            cfg = RunConfig(temp_mk=rng.uniform(10.0, 300.0), e_j=rng.uniform(20.0, 150.0),
                            omega_c=10.0 ** rng.uniform(math.log10(50.0), 3.0),
                            eta=10.0 ** rng.uniform(-7.0, -5.0))
            tau_m = _tld_report(cfg)["tau_ld_relax_units"]
            crossing = float(mpmath.findroot(
                lambda t: mpmath_born_deviation(t, cfg) - cfg.threshold, (tau_m, 1.02 * tau_m)))
            assert mpmath_born_deviation(0.5 * crossing, cfg) < cfg.threshold
            gaps.append(tau_m / crossing - 1.0)
        assert max(map(abs, gaps)) <= 0.112
