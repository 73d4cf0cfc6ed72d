import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decoq.bath import (
    BathSpec,
    DiscreteBath,
    QuadratureError,
    _check_converged,
    coth,
    dephasing_exponent,
    dephasing_exponent_modes,
    dephasing_exponent_quadrature,
    dephasing_exponent_zero_t,
    discretize_bath,
    influence_exponent,
    phase_shift,
    phase_shift_modes,
    phase_shift_quadrature,
    spectral_density,
)
from decoq.units import temperature_to_beta

BETA_30MK = temperature_to_beta(30.0)


def bench_spec(**kw):
    base = dict(eta=1e-6, omega_c=200.0, beta=BETA_30MK, s=1.0)
    base.update(kw)
    return BathSpec(**base)


class TestCoth:
    def test_large_argument_saturates(self):
        assert coth(25.0) == 1.0

    def test_small_argument_series(self):
        x = 1e-6
        assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-12)

    def test_moderate_argument(self):
        assert coth(1.0) == pytest.approx(math.cosh(1.0) / math.sinh(1.0), rel=1e-14)

    def test_vectorized(self):
        x = np.array([1e-8, 0.5, 3.0, 30.0])
        out = coth(x)
        assert out.shape == x.shape
        assert out[0] == pytest.approx(1e8, rel=1e-10)
        assert out[-1] == 1.0


class TestBathSpec:
    def test_zero_temperature_allowed(self):
        spec = bench_spec(beta=math.inf)
        assert math.isinf(spec.beta)

    @pytest.mark.parametrize(
        "field,value",
        [("eta", -1e-6), ("omega_c", 0.0), ("beta", -1.0), ("beta", 0.0), ("s", -0.5),
         ("s", 0.5)],
    )
    def test_rejects_bad_values(self, field, value):
        kw = {field: value}
        with pytest.raises(ValueError):
            bench_spec(**kw)


class TestSpectralDensity:
    def test_zero_frequency(self):
        assert spectral_density(0.0, bench_spec()) == 0.0

    def test_peaks_at_cutoff_for_linear_case(self):
        spec = bench_spec()
        w = np.linspace(1.0, 2000.0, 4000)
        j = spectral_density(w, spec)
        assert abs(w[np.argmax(j)] - spec.omega_c) < 1.0

    def test_linear_in_eta(self):
        a = spectral_density(100.0, bench_spec(eta=1e-6))
        b = spectral_density(100.0, bench_spec(eta=3e-6))
        assert b == pytest.approx(3.0 * a, rel=1e-14)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            spectral_density(-1.0, bench_spec())


class TestDephasingExponent:
    def test_zero_time_and_zero_coupling(self):
        spec = bench_spec()
        assert dephasing_exponent(0.0, spec) == 0.0
        assert dephasing_exponent(1.0, bench_spec(eta=0.0)) == 0.0

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_zero_temperature_closed_form(self, t):
        spec = bench_spec(beta=math.inf)
        closed = dephasing_exponent_zero_t(t, spec)
        quad = dephasing_exponent_quadrature(t, spec, 1e-10)
        assert quad == pytest.approx(closed, rel=1e-8, abs=0.0)
        assert dephasing_exponent(t, spec) == pytest.approx(closed, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_finite_temperature_against_cutoff_free_thermal_form(self, t):
        # exact thermal correction for a sharp separation of scales:
        # 2 eta ln(1 + (w_c t)^2) + 4 eta ln(sinh(pi t/beta)/(pi t/beta));
        # the cutoff only perturbs it at the percent level for beta w_c ~ 77
        spec = bench_spec()
        x = math.pi * t / spec.beta
        reference = 2.0 * spec.eta * math.log1p((spec.omega_c * t) ** 2)
        reference += 4.0 * spec.eta * (math.log(math.sinh(x)) - math.log(x))
        assert dephasing_exponent(t, spec) == pytest.approx(reference, rel=0.02)

    def test_monotone_in_time(self):
        spec = bench_spec()
        vals = [dephasing_exponent(t, spec) for t in (0.05, 0.2, 1.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_hotter_bath_dephases_more(self):
        t = 0.5
        cold = dephasing_exponent(t, bench_spec(beta=temperature_to_beta(10.0)))
        hot = dephasing_exponent(t, bench_spec(beta=temperature_to_beta(100.0)))
        assert hot > cold

    def test_continuous_across_quadrature_routing_switch(self):
        # the oscillation count crosses the breakpoint budget near
        # t = 2 pi * 600 / (60 w_c); values on both sides must line up
        spec = bench_spec()
        t_switch = 2.0 * math.pi * 600.0 / (60.0 * spec.omega_c)
        lo = dephasing_exponent_quadrature(0.99 * t_switch, spec, 1e-10)
        hi = dephasing_exponent_quadrature(1.01 * t_switch, spec, 1e-10)
        assert hi > lo
        assert (hi - lo) / lo < 0.05

    def test_coth_bounds_rule_out_a_window_below_1p5(self):
        # 1 <= coth x <= 1 + 1/x brackets B2 between the T = 0 form and
        # that form plus 16 eta/beta * int sin^2(wt/2)/w^2 dw = 4 pi eta t/beta.
        spec = bench_spec()

        def upper(t):
            return dephasing_exponent_zero_t(t, spec) + 4.0 * math.pi * spec.eta * t / spec.beta

        for t in np.geomspace(1e-3, 10.0, 25):
            t = float(t)
            assert dephasing_exponent_zero_t(t, spec) <= dephasing_exponent(t, spec) <= upper(t)
        # D(t) = 1e-4 needs B2 = -ln(1 - 2e-4), which the upper bound
        # does not reach by t = 1.5: the benchmark window exceeds 1.5 units.
        assert upper(1.5) < -math.log1p(-2e-4)

    def test_superohmic_exponent_runs(self):
        spec = bench_spec(s=1.5)
        val = dephasing_exponent(0.5, spec)
        assert val > 0.0

    def test_subohmic_rejected(self):
        with pytest.raises(ValueError):
            dephasing_exponent(0.5, bench_spec(s=0.5))

    def test_rtol_validation(self):
        with pytest.raises(ValueError):
            dephasing_exponent(0.5, bench_spec(), rtol=0.5)
        with pytest.raises(ValueError):
            dephasing_exponent(0.5, bench_spec(), rtol=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing_exponent(-0.5, bench_spec())


def mpmath_ohmic_b2(t, spec):
    """30-digit B2 for s = 1 from the same log-gamma closed form."""
    with mpmath.workdps(30):
        beta = mpmath.mpf(spec.beta)
        a = 1 / (beta * spec.omega_c)
        y = mpmath.mpf(t) / beta
        thermal = mpmath.loggamma(1 + a) - mpmath.re(mpmath.loggamma(mpmath.mpc(1 + a, y)))
        zero_t = mpmath.log1p((spec.omega_c * mpmath.mpf(t)) ** 2) / 2
        return float(4 * spec.eta * (zero_t + 2 * thermal))


class TestOhmicClosedForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        temp_mk=st.floats(1.0, 300.0),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_t=st.floats(-7.0, 3.0),
    )
    # short times at a hot, narrow bath, where the thermal term dominates
    # and log-gamma differences cancel worst; and the far corner
    @example(temp_mk=300.0, log_omega_c=math.log10(50.0), log_t=-7.0)
    @example(temp_mk=100.0, log_omega_c=math.log10(50.0), log_t=-5.0)
    @example(temp_mk=1.0, log_omega_c=4.0, log_t=3.0)
    def test_matches_mpmath(self, temp_mk, log_omega_c, log_t):
        # covers both the y^2 series and the log-gamma branch
        spec = bench_spec(omega_c=10.0**log_omega_c, beta=temperature_to_beta(temp_mk))
        t = 10.0**log_t
        ref = mpmath_ohmic_b2(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "temp_mk, omega_c, t",
        [(1.0, 200.0, 1e-4), (30.0, 1e4, 1e3)],
    )
    def test_quadrature_defect_points_match_mpmath(self, temp_mk, omega_c, t):
        # the quadrature path is off by 6e-7 and 4e-3 here
        spec = bench_spec(omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        ref = mpmath_ohmic_b2(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_series_branch_switch_is_continuous(self):
        # y = t/beta crosses 0.1 (1 + a) at the switch between the branches
        spec = bench_spec()
        a = 1.0 / (spec.beta * spec.omega_c)
        t_switch = 0.1 * (1.0 + a) * spec.beta
        for t in (t_switch * (1.0 - 1e-12), t_switch * (1.0 + 1e-12)):
            ref = mpmath_ohmic_b2(t, spec)
            assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("temp_mk", [10.0, 30.0, 100.0, 300.0])
    @pytest.mark.parametrize("omega_c", [50.0, 200.0])
    def test_matches_quadrature(self, temp_mk, omega_c):
        # beta * omega_c stays below ~600 here; colder or wider baths make
        # the quadrature itself inexact at short times
        spec = bench_spec(omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        converged = 0
        for t in np.geomspace(1e-4, 100.0, 13):
            t = float(t)
            try:
                quad = dephasing_exponent_quadrature(t, spec, 1e-10)
            except QuadratureError:
                continue
            converged += 1
            assert dephasing_exponent(t, spec) == pytest.approx(quad, rel=1e-8, abs=0.0)
        assert converged >= 12


class TestPhaseShift:
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_quadrature_matches_closed_form(self, t):
        spec = bench_spec(beta=math.inf)
        x = spec.omega_c * t
        closed = spec.eta * (x - math.atan(x))
        assert phase_shift_quadrature(t, spec, 1e-10) == pytest.approx(closed, rel=1e-8)
        assert phase_shift(t, spec) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("s", [2.0, 3.0])
    @pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
    def test_superohmic_quadrature_matches_closed_form(self, s, t):
        # t = 0.05 takes the per-period breakpoint path, t = 1 and 10 the
        # oscillatory-weighted one; the closed form integrates J(w)/w^2 (w t)
        # and J(w)/w^2 sin(w t) separately
        spec = bench_spec(s=s)
        x = spec.omega_c * t
        closed = spec.eta * (
            t * math.gamma(s) * spec.omega_c**s
            - math.gamma(s - 1.0) * spec.omega_c ** (s - 1.0)
            * (1.0 + x * x) ** (-0.5 * (s - 1.0)) * math.sin((s - 1.0) * math.atan(x))
        )
        assert phase_shift_quadrature(t, spec, 1e-10) == pytest.approx(closed, rel=1e-9)

    def test_independent_of_temperature(self):
        # the shift integral carries no thermal factor
        assert phase_shift(0.7, bench_spec()) == phase_shift(
            0.7, bench_spec(beta=math.inf)
        )

    def test_small_time_cubic_growth(self):
        spec = bench_spec()
        a = phase_shift(1e-6, spec)
        b = phase_shift(2e-6, spec)
        assert b / a == pytest.approx(8.0, rel=1e-4)


class TestDiscreteBath:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([2.0, 1.0]), g_sq=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([1.0, 2.0]), g_sq=np.array([1.0, -1.0]))

    def test_discretization_total_weight(self):
        # sum of g^2 approximates the zeroth moment eta * w_c^2 for s = 1
        spec = bench_spec()
        bath = discretize_bath(spec, 20000, 60.0 * spec.omega_c)
        assert float(bath.g_sq.sum()) == pytest.approx(
            spec.eta * spec.omega_c**2, rel=1e-3
        )

    @pytest.mark.parametrize("t", [1e-2, 0.3, 2.0])
    def test_modes_converge_to_continuum(self, t):
        spec = bench_spec()
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        cont = dephasing_exponent(t, spec, 1e-10)
        disc = dephasing_exponent_modes(t, bath, spec.beta)
        assert disc == pytest.approx(cont, rel=1e-4)

    def test_modes_zero_temperature(self):
        spec = bench_spec(beta=math.inf)
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        cont = dephasing_exponent_zero_t(0.5, spec)
        assert dephasing_exponent_modes(0.5, bath, math.inf) == pytest.approx(cont, rel=1e-4)

    def test_phase_shift_modes_converge(self):
        spec = bench_spec(beta=math.inf)
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        x = spec.omega_c * 0.5
        closed = spec.eta * (x - math.atan(x))
        assert phase_shift_modes(0.5, bath) == pytest.approx(closed, rel=1e-4)


class TestInfluenceExponent:
    def test_equal_branches_give_unity(self):
        assert influence_exponent(1, 1, 0.4, 0.2) == 0.0
        assert influence_exponent(-1, -1, 0.4, 0.2) == 0.0

    def test_opposite_branches_decay_without_phase(self):
        # the squared coupling eigenvalues cancel the shift term exactly
        val = influence_exponent(1, -1, 0.4, 0.2)
        assert val == pytest.approx(-0.4 + 0.0j, abs=1e-15)
        assert influence_exponent(-1, 1, 0.4, 0.2) == val

    def test_validation(self):
        with pytest.raises(ValueError):
            influence_exponent(0, 1, 0.4, 0.2)
        with pytest.raises(ValueError):
            influence_exponent(1, 1, -0.1, 0.2)


class TestHelpers:
    def test_check_converged_raises(self):
        with pytest.raises(QuadratureError) as err:
            _check_converged("thing", 1.0, 0.5, 1e-8)
        assert err.value.value == 1.0
        assert err.value.error_estimate == 0.5
