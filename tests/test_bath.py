import functools
import math
import operator
import sys
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decoq import bath
from decoq.bath import (
    C_SERIES_U,
    EM_COEFFS,
    EM_N,
    BathSpec,
    _b2_peak_bound,
    _g,
    _hurwitz,
    _thermal_sum,
    dephasing_exponent,
    dephasing_exponent_zero_t,
    phase_shift,
)
from decoq.discrete import (
    _BLOCK,
    DiscreteBath,
    dephasing_exponent_modes,
    discretize_bath,
    phase_shift_modes,
)
from decoq.cli import PRESETS
from decoq.evolution import max_decoherence, pure_state_norm
from decoq.states import evolve_real_influence_sum, pure_state
from decoq.units import KB_UEV_PER_K, temperature_to_beta
from references import (
    charge_basis_factor,
    mpmath_b2,
    mpmath_c,
    mpmath_d,
    mpmath_direct,
    mpmath_g,
    mpmath_midpoint_weights,
    mpmath_modes_b2,
    mpmath_norm,
    single_pass_sums,
    zero_t_b2,
)

BETA_30MK = temperature_to_beta(30.0)


def bench_spec(**kw):
    base = dict(eta=1e-6, omega_c=200.0, beta=BETA_30MK, s=1.0)
    base.update(kw)
    return BathSpec(**base)


def one_mode_b2(x, t=1.0):
    """dephasing_exponent_modes on one mode at omega = 1, g^2 = 1 and beta = 2x."""
    return dephasing_exponent_modes(t, DiscreteBath([1.0], [1.0]), 2.0 * x)


class TestCoth:
    # the factor coth(beta omega/2) of the mode sum: on one_mode_b2's mode
    # B2 = 8 sin^2(t/2) coth(x)
    def test_large_argument_saturates(self):
        assert one_mode_b2(25.0) == one_mode_b2(math.inf)

    def test_small_argument_series(self):
        x = 1e-6
        assert one_mode_b2(x) == pytest.approx(8.0 * math.sin(0.5) ** 2 * (1.0 / x + x / 3.0),
                                               rel=1e-12, abs=0.0)

    def test_moderate_argument(self):
        assert one_mode_b2(1.0) == pytest.approx(
            8.0 * math.sin(0.5) ** 2 * math.cosh(1.0) / math.sinh(1.0), rel=1e-14, abs=0.0)

    def test_vectorized(self):
        # four modes at beta = 2, so beta omega/2 = omega, summed as a block
        w = np.array([1e-8, 0.5, 3.0, 30.0])
        t = 1e7  # keeps the lowest mode's sin^2(omega t/2) away from 0
        total = dephasing_exponent_modes(t, DiscreteBath(w, np.ones(4)), 2.0)
        each = [dephasing_exponent_modes(t, DiscreteBath([v], [1.0]), 2.0) for v in w]
        assert total == pytest.approx(math.fsum(each), rel=1e-15, abs=0.0)
        assert each[0] == pytest.approx(8e16 * math.sin(0.05) ** 2 * 1e8, rel=1e-10, abs=0.0)
        assert each[-1] == dephasing_exponent_modes(t, DiscreteBath([30.0], [1.0]), math.inf)


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
    # J(omega) = eta omega^s exp(-omega/omega_c), read from discretize_bath's
    # g_k^2 = J(omega_k) d omega
    def test_zero_frequency(self):
        # the midpoint grid starts at d omega/2, so J never sees omega <= 0
        bath = discretize_bath(bench_spec(), 100, 1000.0)
        assert bath.omegas[0] == 5.0
        assert np.all(bath.omegas > 0.0)
        assert bath.g_sq[0] == pytest.approx(1e-6 * 5.0 * math.exp(-5.0 / 200.0) * 10.0,
                                             rel=1e-14, abs=0.0)

    def test_peaks_at_cutoff_for_linear_case(self):
        spec = bench_spec()
        bath = discretize_bath(spec, 4000, 2000.0)
        assert abs(bath.omegas[np.argmax(bath.g_sq)] - spec.omega_c) < 1.0

    def test_linear_in_eta(self):
        a = discretize_bath(bench_spec(eta=1e-6), 50, 1000.0)
        b = discretize_bath(bench_spec(eta=3e-6), 50, 1000.0)
        np.testing.assert_array_equal(a.omegas, b.omegas)
        np.testing.assert_allclose(b.g_sq, 3.0 * a.g_sq, rtol=1e-14, atol=0.0)


class TestDephasingExponent:
    def test_zero_time_and_zero_coupling(self):
        spec = bench_spec()
        assert dephasing_exponent(0.0, spec) == 0.0
        assert dephasing_exponent(1.0, bench_spec(eta=0.0)) == 0.0

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_zero_temperature_closed_form(self, t):
        spec = bench_spec(beta=math.inf)
        closed = zero_t_b2(t, spec)
        assert mpmath_direct(t, spec) == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert dephasing_exponent(t, spec) == pytest.approx(closed, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [1e-3, 0.3, 10.0])
    def test_zero_t_entry_point_is_the_infinite_beta_case(self, s, t):
        spec = bench_spec(s=s)
        b2 = dephasing_exponent_zero_t(t, spec)
        assert b2 == dephasing_exponent(t, spec._replace(beta=math.inf))
        if s == 1.0:
            assert b2 == pytest.approx(zero_t_b2(t, spec), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_finite_temperature_against_cutoff_free_thermal_form(self, t):
        # exact thermal correction for a sharp separation of scales:
        # 2 eta ln(1 + (w_c t)^2) + 4 eta ln(sinh(pi t/beta)/(pi t/beta));
        # the cutoff only perturbs it at the percent level for beta w_c ~ 77
        spec = bench_spec()
        x = math.pi * t / spec.beta
        reference = 2.0 * spec.eta * math.log1p((spec.omega_c * t) ** 2)
        reference += 4.0 * spec.eta * (math.log(math.sinh(x)) - math.log(x))
        assert dephasing_exponent(t, spec) == pytest.approx(reference, rel=0.02, abs=0.0)

    def test_monotone_in_time(self):
        spec = bench_spec()
        vals = [dephasing_exponent(t, spec) for t in (0.05, 0.2, 1.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_hotter_bath_dephases_more(self):
        t = 0.5
        cold = dephasing_exponent(t, bench_spec(beta=temperature_to_beta(10.0)))
        hot = dephasing_exponent(t, bench_spec(beta=temperature_to_beta(100.0)))
        assert hot > cold

    def test_coth_bounds_rule_out_a_window_below_1p5(self):
        # 1 <= coth x <= 1 + 1/x brackets B2 between the T = 0 form and
        # that form plus 16 eta/beta * int sin^2(wt/2)/w^2 dw = 4 pi eta t/beta.
        spec = bench_spec()

        def upper(t):
            return zero_t_b2(t, spec) + 4.0 * math.pi * spec.eta * t / spec.beta

        for t in np.geomspace(1e-3, 10.0, 25):
            t = float(t)
            assert zero_t_b2(t, spec) <= dephasing_exponent(t, spec) <= upper(t)
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

    def test_overflow_is_a_value_error(self):
        # omega_c^(s-1) = 1e316 does not fit a double
        spec = bench_spec(s=80.0, omega_c=1e4)
        for quantity in (dephasing_exponent, phase_shift):
            with pytest.raises(ValueError, match=r"s=80\.0, omega_c=10000\.0, t=0\.5"):
                quantity(0.5, spec)

    @pytest.mark.parametrize("a", [1e15, 1e13])
    def test_a_thermal_sum_that_underflowed_is_a_value_error(self, a):
        # at s = 26 every (n + a)^-nu and the tail's (EM_N + a)^(1 - nu) are subnormal
        # or 0, so B2 kept its vacuum term alone: 8.07e-115 against mpmath's 6.20e-101
        # at a = 1/(beta omega_c) = 1e15, and 4.9e-11 of B2 off at a = 1e13
        spec = BathSpec(1e-6, 1e-5, 1.0 / (a * 1e-5), 26.0)
        with pytest.raises(ValueError, match=r"^B2's thermal sum underflows in double precision "
                                             r"at s=26\.0, omega_c=1e-05, t=1\.0$"):
            dephasing_exponent(1.0, spec)

    def test_the_tail_carries_a_thermal_sum_whose_terms_are_subnormal(self):
        # at a = 2.3e12, (1 + a)^-nu = 9.2e-310 but (EM_N + a)^(1 - nu) = 2.1e-297
        spec = BathSpec(1e-6, 1e-5, 1.0 / (2.3e12 * 1e-5), 26.0)
        assert dephasing_exponent(1.0, spec) == pytest.approx(
            mpmath_b2(1.0, spec), rel=1e-14, abs=0.0)

    def test_b2_vanishes_with_the_cutoff(self):
        # a = 1/(beta omega_c) is past the largest double from omega_c =
        # 1.43e-308 at 30 mK, and beta omega_c rounds to 0 at 5e-324; B2
        # there used to be "not finite" (inf * 0 in the thermal sum) while
        # 1.5e-308 gave 0.0
        cutoffs = [1e-300, 1e-305, 1.5e-308, 1.43e-308, 1e-310, 1e-315, 1e-320, 5e-324]
        for t in (0.5, 1.0, 1e3):
            b2 = [dephasing_exponent(t, bench_spec(omega_c=c)) for c in cutoffs]
            assert all(math.isfinite(v) and v >= 0.0 for v in b2)
            assert all(later <= earlier for earlier, later in zip(b2, b2[1:]))
            # the classical 4 eta omega_c t^2/beta of a bath far below kT
            assert b2[0] == pytest.approx(4e-6 * 1e-300 * t * t / BETA_30MK, rel=1e-13, abs=0.0)

    def test_classical_limit_where_beta_omega_c_underflows_at_a_tiny_beta(self):
        # beta omega_c = 1e-310 again puts a past the largest double, but
        # here B2 = 4 eta omega_c t^2/beta is huge, not 0
        spec = bench_spec(omega_c=1e-10, beta=1e-300)
        assert dephasing_exponent(1.0, spec) == pytest.approx(4e-6 * 1e-10 / 1e-300,
                                                              rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("t", [1e-6, 0.5, 1e4])
    def test_classical_limit_meets_the_thermal_sum(self, s, t):
        # either side of CLASSICAL_BETA_OMEGA_C = 1e-16, the two forms agree
        spec = bench_spec(s=s, omega_c=1.0)
        below = dephasing_exponent(t, spec._replace(beta=0.99e-16))
        above = dephasing_exponent(t, spec._replace(beta=1.01e-16))
        assert below == pytest.approx(above * 1.01 / 0.99, rel=1e-12, abs=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing_exponent(-0.5, bench_spec())

    @settings(max_examples=500, deadline=None)
    @given(
        s=st.floats(1.0, 200.0),
        # beta omega_c from inf (T = 0) down past CLASSICAL_BETA_OMEGA_C
        log_beta_omega_c=st.one_of(st.just(math.inf), st.floats(-20.0, 10.0)),
        log_omega_c=st.floats(-160.0, 4.0),
        eta=st.one_of(st.floats(5e-324, 2.2e-308), st.floats(1e-12, 1.0)),
        log_t=st.floats(-6.0, 3.0),
    )
    def test_formed_last_as_four_eta_times_an_eta_free_total(
        self, s, log_beta_omega_c, log_omega_c, eta, log_t
    ):
        # evolution's eta budget bisects 4 eta total for the first double eta,
        # and is the kernel's own first double only while this holds bit for bit
        omega_c, t = 10.0**log_omega_c, 10.0**log_t
        spec = BathSpec(eta, omega_c, 10.0**log_beta_omega_c / omega_c, s)
        try:
            b2 = 4.0 * eta * dephasing_exponent(t, spec._replace(eta=0.25))
        except ValueError as exc:  # the total overflows, or its thermal sum underflows
            with pytest.raises(ValueError) as raised:
                dephasing_exponent(t, spec)
            assert str(raised.value) == str(exc)
            return
        if math.isfinite(b2):
            assert dephasing_exponent(t, spec) == b2
        else:
            with pytest.raises(ValueError, match="B2 is not finite"):
                dephasing_exponent(t, spec)


class TestOhmicClosedForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        temp_mk=st.floats(1.0, 300.0),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_t=st.floats(-7.0, 3.0),
    )
    # short times at a hot, narrow bath, where the thermal term dominates
    # and mpmath_b2's log-gamma differences cancel worst; and the far corner
    @example(temp_mk=300.0, log_omega_c=math.log10(50.0), log_t=-7.0)
    @example(temp_mk=100.0, log_omega_c=math.log10(50.0), log_t=-5.0)
    @example(temp_mk=1.0, log_omega_c=4.0, log_t=3.0)
    def test_matches_mpmath(self, temp_mk, log_omega_c, log_t):
        spec = bench_spec(omega_c=10.0**log_omega_c, beta=temperature_to_beta(temp_mk))
        t = 10.0**log_t
        ref = mpmath_b2(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "temp_mk, omega_c, t",
        [(1.0, 200.0, 1e-4), (30.0, 1e4, 1e3)],
    )
    def test_quadrature_defect_points_match_mpmath(self, temp_mk, omega_c, t):
        # an adaptive quadrature of B2 was off by 6e-7 and 4e-3 here
        spec = bench_spec(omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        ref = mpmath_b2(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_series_branch_switch_is_continuous(self):
        # C(t) hands its odd-power series over to x - atan x at
        # (s + 1) omega_c t = C_SERIES_U
        spec = bench_spec()
        t_switch = C_SERIES_U / (2.0 * spec.omega_c)
        for t in (t_switch * (1.0 - 1e-12), t_switch * (1.0 + 1e-12)):
            ref = mpmath_c(t, spec)
            assert phase_shift(t, spec) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("temp_mk", [10.0, 30.0, 100.0, 300.0])
    @pytest.mark.parametrize("omega_c", [50.0, 200.0])
    def test_matches_direct_integral(self, temp_mk, omega_c):
        # against mpmath_direct, which does not expand coth
        spec = bench_spec(omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        for t in np.geomspace(1e-4, 100.0, 4):
            t = float(t)
            ref = mpmath_direct(t, spec)
            assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)


def kernel_order(s, j):
    """The j-th order _thermal_sum takes G at: nu - 1, nu, then nu + 2k - 1 for k >= 1."""
    nu = s - 1.0
    return (nu - 1.0, nu, *(nu + 2 * k - 1 for k in range(1, len(EM_COEFFS) + 1)))[j]


class TestKernel:
    """B2 and C for every s >= 1 against mpmath, to 1e-12 relative, and G_mu to 1e-13."""

    @settings(max_examples=500, deadline=None)
    @given(
        # half the draws of s in [1, 2], where nu - 1 crosses the switch at -1/2
        mu=st.builds(kernel_order, st.floats(1.0, 2.0) | st.floats(1.0, 20.0),
                     st.integers(0, len(EM_COEFFS) + 1)),
        r=st.floats(-140.0, 300.0).map(lambda log_r: 10.0**log_r),
    )
    # both sides of the switch to the expm1 form at mu = -1/2, and inside
    # it; the limits G_0 and G_-1 and the order of s = 1 + 2^-52, at the
    # smallest and largest r; the switch to L = log r at r = 1e150
    @example(mu=-0.5, r=1.0)
    @example(mu=math.nextafter(-0.5, -1.0), r=1.0)
    @example(mu=-0.75, r=1.0)
    @example(mu=math.nextafter(-0.5, 0.0), r=1e300)
    @example(mu=math.nextafter(-0.5, -1.0), r=1e-140)
    @example(mu=0.0, r=1e-140)
    @example(mu=-1.0, r=1e-140)
    @example(mu=-1.0 + 2.0**-52, r=1e-140)
    @example(mu=-1.0 + 2.0**-52, r=1e300)
    @example(mu=0.0, r=math.nextafter(1e150, 0.0))
    @example(mu=0.0, r=1e150)
    @example(mu=-0.25, r=math.nextafter(1e150, math.inf))
    def test_g_matches_mpmath(self, mu, r):
        # below mu = 0 the error grows with |mu| log r, since exp(-mu L)
        # inherits the rounding of mu L: 5.5e-14 at r near 1e300
        assert _g(mu, r) == pytest.approx(mpmath_g(mu, r), rel=1e-13, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(1.0, 20.0),
        log_a=st.floats(-6.0, 16.0),
        log_y=st.floats(-10.0, 300.0),
        p=st.floats(1.001, 8.0),
        z=st.floats(-6.0, 3.0).map(lambda log_z: 10.0**log_z)
        | st.builds(complex, st.floats(1e-4, 10.0), st.floats(-1e4, 1e4)),
    )
    def test_sums_add_their_terms_left_to_right(self, s, log_a, log_y, p, z):
        # builtin sum() compensates from Python 3.12 on and math.fsum rounds
        # once: either changes B2's last bits, on some interpreters or on all
        nu, a, y = s - 1.0, 10.0**log_a, 10.0**log_y
        q, r = EM_N + a, y / (EM_N + a)
        thermal = [(n + a) ** -nu * _g(nu, y / (n + a)) for n in range(1, EM_N)]
        thermal.append(q ** (1.0 - nu) * _g(nu - 1.0, r) + 0.5 * q**-nu * _g(nu, r))
        thermal += [c * q ** (1.0 - nu - 2 * j) * _g(nu + 2 * j - 1, r)
                    for j, c in enumerate(EM_COEFFS, 1)]
        q = EM_N + z
        hurwitz = [(n + z) ** -p for n in range(1, EM_N)]
        hurwitz += [q ** (1.0 - p) / (p - 1.0), 0.5 * q**-p]
        rising = p
        for j, c in enumerate(EM_COEFFS, 1):
            hurwitz.append(c * rising * q ** (1.0 - p - 2 * j))
            rising *= (p + 2 * j - 1) * (p + 2 * j)
        with mock.patch.object(bath, "sum", create=True, side_effect=AssertionError("sum()")):
            assert _thermal_sum(nu, a, y) == functools.reduce(operator.add, thermal, 0.0)
            assert _hurwitz(p, z) == functools.reduce(operator.add, hurwitz, 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.0, 20.0),
        temp_mk=st.one_of(st.none(), st.floats(0.0, 6.0).map(lambda log_mk: 10.0**log_mk)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_t=st.floats(-7.0, 5.0),
    )
    # s -> 1+, where the Euler-Maclaurin integral term needs its expm1 form;
    # both sides of that form's switch at s = 1.5; s = 2, where the term is
    # G_0; and the two s = 2 points where adaptive quadrature was 2.6% off
    # and did not converge
    @example(s=1.0 + 1e-9, temp_mk=300.0, log_omega_c=math.log10(50.0), log_t=2.0)
    @example(s=1.0 + 1e-6, temp_mk=100.0, log_omega_c=3.0, log_t=0.0)
    @example(s=1.001, temp_mk=300.0, log_omega_c=math.log10(50.0), log_t=5.0)
    @example(s=1.5, temp_mk=30.0, log_omega_c=math.log10(200.0), log_t=1.0)
    @example(s=1.5 - 1e-12, temp_mk=30.0, log_omega_c=math.log10(200.0), log_t=1.0)
    @example(s=2.0, temp_mk=300.0, log_omega_c=math.log10(50.0), log_t=3.0)
    @example(s=2.0, temp_mk=200.0, log_omega_c=4.0, log_t=3.0)
    @example(s=2.0, temp_mk=300.0, log_omega_c=4.0, log_t=3.0)
    @example(s=4.0, temp_mk=None, log_omega_c=4.0, log_t=5.0)
    # the corners of s in [1, 20] and T in {0} U [1, 1e6] mK; at 40 digits
    # the reference itself is 1.6e-3 off at s = 13.7, 1e6 mK and t = 1e-7
    @example(s=1.0, temp_mk=1e6, log_omega_c=4.0, log_t=-7.0)
    @example(s=1.0, temp_mk=1e6, log_omega_c=math.log10(50.0), log_t=5.0)
    @example(s=13.7, temp_mk=1e6, log_omega_c=math.log10(50.0), log_t=-7.0)
    @example(s=13.7, temp_mk=1e6, log_omega_c=4.0, log_t=-7.0)
    @example(s=20.0, temp_mk=None, log_omega_c=math.log10(50.0), log_t=-7.0)
    @example(s=20.0, temp_mk=None, log_omega_c=4.0, log_t=5.0)
    @example(s=20.0, temp_mk=1.0, log_omega_c=math.log10(50.0), log_t=5.0)
    @example(s=20.0, temp_mk=1e6, log_omega_c=math.log10(50.0), log_t=-7.0)
    @example(s=20.0, temp_mk=1e6, log_omega_c=4.0, log_t=-7.0)
    @example(s=20.0, temp_mk=1e6, log_omega_c=4.0, log_t=5.0)
    def test_matches_mpmath(self, s, temp_mk, log_omega_c, log_t):
        beta = math.inf if temp_mk is None else temperature_to_beta(temp_mk)
        spec = bench_spec(s=s, omega_c=10.0**log_omega_c, beta=beta)
        t = 10.0**log_t
        assert dephasing_exponent(t, spec) == pytest.approx(mpmath_b2(t, spec), rel=1e-12, abs=0.0)
        assert phase_shift(t, spec) == pytest.approx(mpmath_c(t, spec), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "quantity,reference,t,spec",
        [
            (dephasing_exponent, mpmath_b2, 5.7e-133, bench_spec(s=2.0, omega_c=100.0,
                                                                  beta=math.inf)),
            (dephasing_exponent, mpmath_b2, 1e-20, bench_spec(omega_c=100.0)),
            (phase_shift, mpmath_c, 1e-20, bench_spec(beta=math.inf)),
            (phase_shift, mpmath_c, 1e-20, bench_spec(s=1.5, beta=math.inf)),
            (phase_shift, mpmath_c, 1e-40, bench_spec(beta=math.inf)),
        ],
        ids=["s2-zero-T", "s1-30mK", "C-s1-zero-T", "C-s1.5-zero-T", "C-s1-1e-40"],
    )
    def test_matches_mpmath_where_the_reference_cancels(self, quantity, reference, t, spec):
        # without the digits its subtractions lose, mpmath_b2 gave 0.0 at
        # the first point, and at the second was 2.4e-7 off at 40 digits and
        # 9.5e-10 at 40 + 2s; at 40 + 2s digits mpmath_c was 2.75e-8 off at
        # the third, 1.0e-10 at the fourth and 0.0 at the fifth
        assert quantity(t, spec) == pytest.approx(reference(t, spec), rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.0, 20.0),
        temp_mk=st.one_of(st.none(), st.floats(0.0, 6.0).map(lambda log_mk: 10.0**log_mk)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_t=st.floats(-150.0, -7.0),
        e_j=st.floats(5.0, 500.0),
    )
    # the smallest B2, D and C of their regions, B2's edge one ulp above
    # s = 1 and at the hot corner where its thermal sum is least, and the
    # most digits
    @example(s=1.0, temp_mk=None, log_omega_c=math.log10(50.0), log_t=-135.0, e_j=5.0)
    @example(s=1.0 + 2.0**-52, temp_mk=None, log_omega_c=math.log10(50.0), log_t=-135.0,
             e_j=5.0)
    @example(s=20.0, temp_mk=1e6, log_omega_c=math.log10(50.0), log_t=-135.0, e_j=500.0)
    @example(s=1.0, temp_mk=None, log_omega_c=math.log10(50.0), log_t=-100.0, e_j=500.0)
    @example(s=20.0, temp_mk=1e6, log_omega_c=4.0, log_t=-135.0, e_j=500.0)
    def test_matches_mpmath_at_short_times(self, s, temp_mk, log_omega_c, log_t, e_j):
        # test_matches_mpmath's box below t = 1e-7, with curve's D and
        # norm_* columns as test_curve_columns_match_mpmath forms them.  The
        # claims stop where decoq forms a subnormal double.  B2's stop at
        # 1e-135: the thermal sum's terms (n + a)^-nu G_nu(y/(n + a)) are
        # subnormal before 2 beta^-nu scales them up at large s and a
        # (3.6e-7 off at s = 20, 1e6 mK, omega_c = 50, t = 1e-140; 3.8e-12
        # at 1e-137; 99% at s = 18.53, omega_c = 103.4, t = 1.55e-156), and
        # near s = 1 _g's (s - 1) x^2/2 is (8.0e-12 at s = 1 + 2^-52,
        # omega_c = 50, T = 0, t = 1e-150).  C's stop at 1e-100, since
        # _c_unit forms x^3 before omega_c^nu (0.0 at s = 11, omega_c = 2479,
        # t = 1.2e-114)
        beta = math.inf if temp_mk is None else temperature_to_beta(temp_mk)
        spec = bench_spec(s=s, omega_c=10.0**log_omega_c, beta=beta)
        t = 10.0**log_t
        if t >= 1e-135:
            b2 = dephasing_exponent(t, spec)
            assert b2 == pytest.approx(mpmath_b2(t, spec), rel=1e-12, abs=0.0)
            d_ref = mpmath_d(t, spec)
            assert max_decoherence(b2) == pytest.approx(d_ref, rel=1e-12, abs=0.0)
            for theta, phi in PRESETS.values():
                ref = mpmath_norm(d_ref, theta, phi, t, e_j)
                assert abs(pure_state_norm(theta, phi, b2, t, e_j) - ref) <= 1e-12 * d_ref
        if t >= 1e-100:
            assert phase_shift(t, spec) == pytest.approx(mpmath_c(t, spec), rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.0, 3.0),
        log_x=st.floats(153.0, 299.0),
        log_a=st.floats(-3.0, 1.0),
    )
    # s = 1, where G_0 is log(1 + r^2)/2 itself, and s < 3/2, where the
    # Euler-Maclaurin integral term grows like r^(2-s)
    @example(s=1.0, log_x=300.0, log_a=0.0)
    @example(s=1.2, log_x=200.0, log_a=0.0)
    def test_matches_mpmath_where_r_squared_overflows(self, s, log_x, log_a):
        # omega_c t = 10^log_x and t/beta = a omega_c t both lie in [1e150, 1e300]
        t = 10.0**log_x / 200.0
        spec = bench_spec(s=s, beta=1.0 / (10.0**log_a * 200.0))
        assert dephasing_exponent(t, spec) == pytest.approx(mpmath_b2(t, spec), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "s, temp_mk, omega_c, t",
        [(1.5, 30.0, 200.0, 0.5), (1.5, 1.0, 1e4, 1e-3), (2.0, 200.0, 1e4, 1e3),
         (2.0, 300.0, 1e4, 1e3), (3.0, 300.0, 50.0, 10.0), (3.0, 10.0, 200.0, 1e-2)],
    )
    def test_matches_direct_integral(self, s, temp_mk, omega_c, t):
        spec = bench_spec(s=s, omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        ref = mpmath_direct(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestPeakBound:
    """The bound on B2 at every t for s > 2, which proves a no crossing past t_rise."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1.5, 7.0), log_re=st.floats(-4.0, 1.0), log_im=st.floats(-3.0, 4.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_hurwitz_matches_mpmath_at_complex_z(self, p, log_re, log_im, sign):
        # the docstring's complex z; the largest error measured over 4000
        # random draws of this box was 1.8e-15 of |zeta|
        z = complex(10.0**log_re, sign * 10.0**log_im)
        with mpmath.workdps(40):
            ref = complex(mpmath.zeta(p, 1 + mpmath.mpc(z.real, z.imag)))
        assert abs(_hurwitz(p, z) - ref) <= 2e-15 * abs(ref)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=st.floats(1.001, 8.0), log_a=st.floats(-6.0, 3.0))
    def test_hurwitz_matches_mpmath(self, p, log_a):
        a = 10.0**log_a
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(p, 1 + mpmath.mpf(a)))
        assert _hurwitz(p, a) == pytest.approx(ref, rel=2e-15, abs=0.0)
        # Gamma(p) times the sum is the y -> inf limit of B2's thermal sum
        assert _thermal_sum(p, a, math.inf) == pytest.approx(
            math.gamma(p) * ref, rel=1e-13, abs=0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        s=st.floats(2.0, 6.0, exclude_min=True),
        temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
    )
    @example(s=2.0 + 1e-9, temp_mk=300.0, log_omega_c=math.log10(50.0))
    @example(s=6.0, temp_mk=0.0, log_omega_c=4.0)
    def test_bound_holds_at_every_t(self, s, temp_mk, log_omega_c):
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        spec = bench_spec(s=s, omega_c=10.0**log_omega_c, beta=beta)
        bound = _b2_peak_bound(spec)
        t_rise = math.tan(math.pi / s) / spec.omega_c
        # thermal term n peaks at t = tan(pi/s) beta (n + a): the grid passes
        # the peaks of the first 1e4 of them
        t_end = 1e3 * t_rise + (0.0 if temp_mk == 0.0 else 1e4 * spec.beta * math.tan(math.pi / s))
        for t in np.geomspace(1e-3 * t_rise, t_end, 400):
            assert dephasing_exponent(float(t), spec) <= bound * (1.0 + 1e-12)
        if temp_mk == 0.0:
            # one term, which peaks at t_rise
            assert bound == pytest.approx(dephasing_exponent(t_rise, spec), rel=1e-12, abs=0.0)

    def test_bound_holds_in_the_classical_limit(self):
        # beta omega_c = 3.9e-19: B2 is its classical limit, whose one term
        # peaks at omega_c t = tan(pi/(s-1)), and the bound of the full sum
        # still covers it
        spec = bench_spec(s=4.0, omega_c=1e-20)
        bound = _b2_peak_bound(spec)
        peak = max(dephasing_exponent(float(t), spec) for t in np.geomspace(1e18, 1e23, 400))
        assert peak <= bound * (1.0 + 1e-12) < 1.2 * peak

    @pytest.mark.parametrize(
        "s, omega_c, temp_mk",
        [
            (200.0, 200.0, 30.0),  # Gamma(nu) overflows
            (80.0, 1e4, 30.0),  # omega_c^nu overflows
            (26.0, 1e-5, 1e15 * 1e-5 / (KB_UEV_PER_K * 1e-3)),  # the sum underflows, a = 1e15
            (2.5, 1e-200, 1e203),  # beta omega_c underflows to 0
        ],
    )
    def test_bound_that_cannot_be_formed_proves_nothing(self, s, omega_c, temp_mk):
        assert _b2_peak_bound(bench_spec(s=s, omega_c=omega_c,
                                         beta=temperature_to_beta(temp_mk))) == math.inf


class TestPhaseShift:
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_quadrature_matches_closed_form(self, t):
        spec = bench_spec(beta=math.inf)
        closed = mpmath_c(t, spec)
        quad = mpmath_direct(t, spec, shift=True)
        assert quad == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert phase_shift(t, spec) == pytest.approx(closed, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [2.0, 3.0])
    @pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
    def test_superohmic_quadrature_matches_closed_form(self, s, t):
        # the closed form integrates J(w)/w^2 (w t) and J(w)/w^2 sin(w t)
        # separately; the direct integral takes their difference as written
        spec = bench_spec(s=s)
        closed = mpmath_c(t, spec)
        quad = mpmath_direct(t, spec, shift=True)
        assert quad == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert phase_shift(t, spec) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_independent_of_temperature(self):
        # the shift integral carries no thermal factor
        assert phase_shift(0.7, bench_spec()) == phase_shift(
            0.7, bench_spec(beta=math.inf)
        )

    def test_small_time_cubic_growth(self):
        spec = bench_spec()
        a = phase_shift(1e-6, spec)
        b = phase_shift(2e-6, spec)
        assert b / a == pytest.approx(8.0, rel=1e-4, abs=0.0)


class TestDiscreteBath:
    def test_validation(self):
        # a bath is a set of modes: any order of frequencies is accepted as given
        bath = DiscreteBath(omegas=np.array([2.0, 1.0]), g_sq=np.array([1.0, 1.0]))
        assert bath.omegas.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError, match="squared couplings must be non-negative"):
            DiscreteBath(omegas=np.array([1.0, 2.0]), g_sq=np.array([1.0, -1.0]))
        # 2.5 modes used to give three bins at 20, 60 and 100, past omega_max
        with pytest.raises(TypeError):
            discretize_bath(bench_spec(), 2.5, 100.0)

    @pytest.mark.parametrize(
        "omegas,g_sq,message",
        [([1.0, 2.0], [1.0], "1-d arrays of equal length"),
         ([[1.0, 2.0]], [[1.0, 1.0]], "1-d arrays of equal length"),
         ([], [], "at least one mode"),
         ([1.0, math.inf], [1.0, 1.0], "mode parameters must be finite"),
         ([1.0, 2.0], [math.nan, 1.0], "mode parameters must be finite"),
         ([0.0, 2.0], [1.0, 1.0], "mode frequencies must be positive")],
        ids=["lengths", "2-d", "empty", "inf-omega", "nan-g", "zero-omega"],
    )
    def test_rejects_bad_modes(self, omegas, g_sq, message):
        with pytest.raises(ValueError, match=message):
            DiscreteBath(omegas, g_sq)

    @pytest.mark.parametrize(
        "n_modes,omega_max,message",
        [(0, 100.0, "n_modes must be >= 1"), (10, 0.0, "omega_max must be finite and > 0"),
         (10, math.inf, "omega_max must be finite and > 0")],
    )
    def test_discretize_rejects_bad_grid(self, n_modes, omega_max, message):
        with pytest.raises(ValueError, match=message):
            discretize_bath(bench_spec(), n_modes, omega_max)

    @pytest.mark.parametrize("x", [1e35, 1e78, 1e155, 1e300])
    def test_phase_shift_modes_at_huge_phase(self, x):
        # the small-x series of x - sin x used to be evaluated here too,
        # where it overflows with numpy warnings (errors in this suite)
        assert phase_shift_modes(x, DiscreteBath([1.0], [1.0])) == x - math.sin(x)

    @pytest.mark.parametrize(
        "mode_sum",
        [lambda t, b: dephasing_exponent_modes(t, b, 1.0), phase_shift_modes],
        ids=["dephasing_exponent_modes", "phase_shift_modes"],
    )
    def test_mode_sums_name_a_phase_that_overflows(self, mode_sum):
        # omega t = 1e309 is past the largest double; both sums used to
        # return nan with numpy warnings (errors in this suite)
        bath = DiscreteBath([0.5, 10.0], [1.0, 1.0])
        for modes in (bath, DiscreteBath([10.0, 0.5], [1.0, 1.0])):  # the largest omega, anywhere
            with pytest.raises(ValueError) as caught:
                mode_sum(1e308, modes)
            assert str(caught.value) == (
                "omega*t is not finite in double precision at omega=10.0, t=1e+308"
            )
        assert math.isfinite(mode_sum(1e307, bath))
        # only the last of four blocks holds the phase past the largest double
        w = np.arange(1.0, 3 * _BLOCK + 8)
        with pytest.raises(ValueError) as caught:
            mode_sum(1e304, DiscreteBath(w, 1.0 / w))
        assert str(caught.value) == (
            f"omega*t is not finite in double precision at omega={w[-1]}, t=1e+304"
        )

    def test_bath_and_one_block_bound_the_memory(self):
        # 200,000 modes hold 3.2 MB; the discretization used to peak 5.0 MB
        # above that, the B2 sum 6.4 MB and the C sum 11.4 MB
        spec = bench_spec()
        tracemalloc.start()
        try:
            bath = discretize_bath(spec, 200_000, 60.0 * spec.omega_c)
            held = bath.omegas.nbytes + bath.g_sq.nbytes
            assert tracemalloc.get_traced_memory()[1] <= held + 0.5e6
            for mode_sum in (lambda: dephasing_exponent_modes(0.5, bath, spec.beta),
                             lambda: phase_shift_modes(0.5, bath)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                mode_sum()
                assert tracemalloc.get_traced_memory()[1] - before <= 0.5e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_modes", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 200_000])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 20.0])
    def test_block_sums_match_a_single_pass(self, n_modes, t):
        spec = bench_spec()
        bath = discretize_bath(spec, n_modes, 60.0 * spec.omega_c)
        b2, c = single_pass_sums(t, bath, spec.beta)
        assert dephasing_exponent_modes(t, bath, spec.beta) == pytest.approx(b2, rel=1e-15, abs=0.0)
        assert phase_shift_modes(t, bath) == pytest.approx(c, rel=1e-15, abs=0.0)

    def test_owned_read_only_arrays_are_kept(self):
        # discretize_bath hands over arrays it owns and froze; they are not copied
        bath = discretize_bath(bench_spec(), 100, 1e3)
        again = DiscreteBath(bath.omegas, bath.g_sq)
        assert again.omegas is bath.omegas and again.g_sq is bath.g_sq
        view = bath.omegas[:50]
        assert DiscreteBath(view, bath.g_sq[:50]).omegas is not view

    def test_caller_arrays_stay_writeable(self):
        w, g2 = np.array([1.0, 2.0]), np.array([0.1, 0.2])
        bath = DiscreteBath(w, g2)
        assert w.flags.writeable and g2.flags.writeable
        assert not bath.omegas.flags.writeable and not bath.g_sq.flags.writeable
        w[0] = 5.0
        assert bath.omegas[0] == 1.0

    def test_follows_the_tuple_protocol(self):
        # a record of two arrays: its length is its field count, not its mode count
        b = DiscreteBath([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert len(b) == len(tuple(b)) == 2
        backwards = list(reversed(b))
        assert len(backwards) == 2
        assert all(np.array_equal(x, y) for x, y in zip(backwards, list(tuple(b))[::-1]))
        assert b.omegas.size == 3

    def test_discretization_total_weight(self):
        # sum of g^2 approximates the zeroth moment eta * w_c^2 for s = 1
        spec = bench_spec()
        bath = discretize_bath(spec, 20000, 60.0 * spec.omega_c)
        assert float(bath.g_sq.sum()) == pytest.approx(
            spec.eta * spec.omega_c**2, rel=1e-3, abs=0.0
        )

    @pytest.mark.parametrize("t", [1e-2, 0.3, 2.0])
    def test_modes_converge_to_continuum(self, t):
        spec = bench_spec()
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        cont = dephasing_exponent(t, spec)
        disc = dephasing_exponent_modes(t, bath, spec.beta)
        assert disc == pytest.approx(cont, rel=1e-4, abs=0.0)

    def test_modes_zero_temperature(self):
        spec = bench_spec(beta=math.inf)
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        cont = dephasing_exponent(0.5, spec)
        assert dephasing_exponent_modes(0.5, bath, math.inf) == pytest.approx(
            cont, rel=1e-4, abs=0.0
        )

    def test_modes_at_a_huge_finite_beta(self):
        # beta omega / 2 overflows to inf, where coth is 1 as at beta = inf
        bath = DiscreteBath([1.0, 8.0, 30.0], [0.1, 0.2, 0.3])
        assert dephasing_exponent_modes(0.5, bath, 1e308) == dephasing_exponent_modes(
            0.5, bath, math.inf
        )
        # from omega = 17977 on, in the third block of four; the suite turns
        # numpy's overflow warning into an error
        w = np.arange(1.0, 3 * _BLOCK + 8)
        bath = DiscreteBath(w, 1.0 / w)
        b2, _ = single_pass_sums(0.5, bath, 2e304)
        assert dephasing_exponent_modes(0.5, bath, 2e304) == pytest.approx(b2, rel=1e-15, abs=0.0)

    def test_phase_shift_modes_converge(self):
        spec = bench_spec(beta=math.inf)
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        x = spec.omega_c * 0.5
        closed = spec.eta * (x - math.atan(x))
        assert phase_shift_modes(0.5, bath) == pytest.approx(closed, rel=1e-4, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(1e-300, 50.0), t=st.floats(1e-3, 3.0))
    @example(x=1e-4, t=1.0)
    @example(x=20.0, t=1.0)
    def test_one_mode_sum_within_three_ulp_of_mpmath(self, x, t):
        # one mode at omega = 1, g^2 = 1 and beta = 2x, so coth(beta omega/2) = coth(x)
        # carries the sum: the worst of 20,000 random draws was 1.92 ulp
        bath = DiscreteBath([1.0], [1.0])
        b2 = dephasing_exponent_modes(t, bath, 2.0 * x)
        ref = mpmath_modes_b2(t, bath, 2.0 * x)
        assert abs(b2 - ref) <= 3 * 2.23e-16 * ref
        if x >= 20.0:  # tanh(x) rounds to 1, so coth is 1 as at beta = inf
            assert b2 == dephasing_exponent_modes(t, bath, math.inf)

    # the cases where 8 g^2/omega^2 overflowed (inf), went 0/0 (nan, with two
    # numpy warnings) or lost its digits, and the least positive double
    @pytest.mark.parametrize("omega,g_sq", [(1e-158, 0.01), (1e-162, 0.01), (1.3e-160, 1e-20),
                                            (5e-324, 0.01)])
    def test_tiny_frequencies_at_zero_temperature(self, omega, g_sq):
        bath = DiscreteBath([omega], [g_sq])
        b2 = dephasing_exponent_modes(0.3, bath, math.inf)
        assert b2 == pytest.approx(mpmath_modes_b2(0.3, bath, math.inf), rel=1e-13, abs=0.0)
        assert b2 == pytest.approx(2.0 * g_sq * 0.3**2, rel=1e-15, abs=0.0)
        # in one block with modes whose omega^2 is normal
        bath = DiscreteBath([1.0, omega, 3.0], [0.1, g_sq, 0.2])
        assert dephasing_exponent_modes(0.3, bath, math.inf) == pytest.approx(
            mpmath_modes_b2(0.3, bath, math.inf), rel=1e-13, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(log_omega=st.floats(-323.3, -154.0), log_g_sq=st.floats(-30.0, 2.0),
           log_t=st.floats(-3.0, 160.0), log_beta=st.one_of(st.just(math.inf),
                                                            st.floats(-5.0, 300.0)))
    @example(log_omega=-323.3, log_g_sq=-2.0, log_t=-0.5, log_beta=math.inf)
    @example(log_omega=-154.0, log_g_sq=0.0, log_t=154.5, log_beta=math.inf)  # h = 1.58
    def test_tiny_frequencies_match_mpmath(self, log_omega, log_g_sq, log_t, log_beta):
        # where omega^2 is not a normal double, up to a phase sin is well conditioned
        # at; at T = 0, and at finite betas whose beta omega/2 is a normal double or not
        omega, t, beta = 10.0**log_omega, 10.0**log_t, 10.0**log_beta
        assume(omega * t <= 10.0)
        bath = DiscreteBath([omega], [10.0**log_g_sq])
        ref = mpmath_modes_b2(t, bath, beta)
        assume(ref < 1e300)
        assert dephasing_exponent_modes(t, bath, beta) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [math.inf, BETA_30MK, 1e-3])
    def test_normal_frequencies_match_mpmath(self, beta):
        # wherever omega^2 is a normal double, down to the least such omega: each
        # term within 4 ulp up to a phase omega t of 100, past which the rounding
        # of omega t sets the error, and the whole sum within 1e-15
        least = math.sqrt(sys.float_info.min)
        while least * least < sys.float_info.min:
            least = math.nextafter(least, math.inf)
        w = [least, 1e-100, 0.5, 3.0, 200.0, 5e3]
        g2 = [1e-300, 1e-190, 0.1, 0.2, 1e-3, 1e-6]
        for t in (1e-3, 0.3, 20.0):
            for omega, g_sq in zip(w, g2):
                if omega * t <= 100.0:
                    bath = DiscreteBath([omega], [g_sq])
                    ref = mpmath_modes_b2(t, bath, beta)
                    assert abs(dephasing_exponent_modes(t, bath, beta) - ref) <= 4 * 2.23e-16 * ref
            bath = DiscreteBath(w, g2)
            assert dephasing_exponent_modes(t, bath, beta) == pytest.approx(
                mpmath_modes_b2(t, bath, beta), rel=1e-15, abs=0.0)

    # a sin^2(omega t/2) that is subnormal, a beta omega/2 that rounds to 0, and a
    # subnormal beta omega/2 at a beta whose 2/beta overflows
    @pytest.mark.parametrize("omega,g_sq,t,beta", [(1e-153, 1.0, 1e-3, math.inf),
                                                   (5e-324, 1e-30, 0.3, 1.0),
                                                   (1.0, 1e-20, 0.3, 1e-310)])
    def test_points_where_the_terms_lost_their_digits(self, omega, g_sq, t, beta):
        bath = DiscreteBath([omega], [g_sq])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b2 = dephasing_exponent_modes(t, bath, beta)
        assert b2 == pytest.approx(mpmath_modes_b2(t, bath, beta), rel=1e-13, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(1.0, 6.0), log_eta=st.floats(-9.0, -2.0), log_omega_c=st.floats(0.0, 4.0),
           n_modes=st.integers(1, 64), span=st.floats(0.1, 60.0))
    def test_discretized_weights_match_mpmath(self, s, log_eta, log_omega_c, n_modes, span):
        spec = BathSpec(10.0**log_eta, 10.0**log_omega_c, BETA_30MK, s)
        omega_max = span * spec.omega_c
        bath = discretize_bath(spec, n_modes, omega_max)
        ref = np.array(mpmath_midpoint_weights(spec, n_modes, omega_max))
        # omega_k's rounding is amplified by d ln J/d ln omega = s - omega/omega_c; over 300
        # random baths the error was at most 0.92 (1 + s + omega_k/omega_c) ulp
        cond = 1.0 + s + bath.omegas / spec.omega_c
        assert np.all(np.abs(bath.g_sq - ref) <= 2 * 2.23e-16 * cond * ref)


class TestInfluenceExponent:
    # the factor exp(-B2 (chi - chi')^2/4) that evolve_real_influence_sum puts on
    # each charge-basis entry, read back from its output: on these states every
    # entry is read within 8.9e-16 of [[1, u], [u, 1]], u = exp(-B2)
    STATES = [pure_state(0.3, 0.2), pure_state(1.1, 0.0), pure_state(2.0, 1.3)]

    @staticmethod
    def factor(state, b2, t=0.4, e_j=51.8):
        return charge_basis_factor(state.rho, evolve_real_influence_sum(state, b2, t, e_j).rho,
                                   t, e_j)

    def test_equal_branches_give_unity(self):
        for state in self.STATES:
            for b2 in (0.0, 0.4, 800.0, math.inf):
                f = self.factor(state, b2)
                assert abs(f[0, 0] - 1.0) <= 2e-15 and abs(f[1, 1] - 1.0) <= 2e-15

    def test_opposite_branches_decay_without_phase(self):
        # the squared coupling eigenvalues cancel the shift term, so the factor is real
        for state in self.STATES:
            f = self.factor(state, 0.4)
            assert abs(f[0, 1] - math.exp(-0.4)) <= 2e-15
            assert abs(f[1, 0] - math.exp(-0.4)) <= 2e-15
