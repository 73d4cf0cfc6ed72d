import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decoq.bath import C_SERIES_U, BathSpec, dephasing_exponent, influence_exponent, phase_shift
from decoq.discrete import (
    DiscreteBath,
    coth,
    dephasing_exponent_modes,
    discretize_bath,
    phase_shift_modes,
    spectral_density,
)
from decoq.units import temperature_to_beta

BETA_30MK = temperature_to_beta(30.0)


def bench_spec(**kw):
    base = dict(eta=1e-6, omega_c=200.0, beta=BETA_30MK, s=1.0)
    base.update(kw)
    return BathSpec(**base)


def zero_t_b2(t, spec):
    """B2 at T = 0 for s = 1: 2 eta ln(1 + omega_c^2 t^2)."""
    return 2.0 * spec.eta * math.log1p((spec.omega_c * t) ** 2)


def mpmath_b2(t, spec, dps=40):
    """B2 from the coth expansion, summed over n by mpmath special functions.

    4 eta [omega_c^nu G_nu(x) + 2 beta^-nu Gamma(nu) (zeta(nu, 1+a) - Re zeta(nu, 1+a-iy))]
    with G_nu(x) = Gamma(nu) [1 - Re (1 - ix)^-nu]; the thermal sum is
    2 (lnG(1+a) - Re lnG(1+a+iy)) at nu = 0 and (Re psi(1+a+iy) - psi(1+a))/beta
    at nu = 1, the limits of the zeta difference.
    """
    with mpmath.workdps(dps):
        wc, t, nu = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s) - 1
        x = wc * t
        if nu == 0:
            total = mpmath.log1p(x * x) / 2
        else:
            total = wc**nu * mpmath.gamma(nu) * (1 - mpmath.re(mpmath.mpc(1, -x) ** -nu))
        if math.isfinite(spec.beta):
            beta = mpmath.mpf(spec.beta)
            a, y = 1 / (beta * wc), t / beta
            z = mpmath.mpc(1 + a, y)
            if nu == 0:
                total += 2 * (mpmath.loggamma(1 + a) - mpmath.re(mpmath.loggamma(z)))
            elif nu == 1:
                total += 2 * (mpmath.re(mpmath.digamma(z)) - mpmath.digamma(1 + a)) / beta
            else:
                total += 2 * beta**-nu * mpmath.gamma(nu) * (
                    mpmath.zeta(nu, 1 + a) - mpmath.re(mpmath.zeta(nu, mpmath.conj(z)))
                )
        return float(4 * spec.eta * total)


def mpmath_c(t, spec, dps=40):
    """C(t) = eta omega_c^nu [Gamma(nu+1) x - Gamma(nu) Im (1 - ix)^-nu].

    At nu = 0 it is eta (x - atan x).
    """
    with mpmath.workdps(dps):
        wc, t, nu = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s) - 1
        x = wc * t
        if nu == 0:
            return float(spec.eta * (x - mpmath.atan(x)))
        return float(spec.eta * wc**nu * (
            mpmath.gamma(nu + 1) * x - mpmath.gamma(nu) * mpmath.im(mpmath.mpc(1, -x) ** -nu)
        ))


def mpmath_direct(t, spec, shift=False, dps=20):
    """B2 (or C with shift=True) by mpmath quadrature of its defining integral.

    Independent of the coth expansion.  [0, 2 pi/t] is integrated as
    written.  Beyond it the oscillating factor is split off: f(w) w t or
    f(w) is integrated on the real line and f(w) exp(i w t) on the vertical
    ray w1 + i u, where it decays like exp(-u t).  f has no singularity
    with Re w > 0, so the rotation is exact.
    """
    with mpmath.workdps(dps):
        wc, t, s = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s)
        beta = mpmath.mpf(spec.beta) if math.isfinite(spec.beta) else None

        def f(w):
            v = w ** (s - 2) * mpmath.exp(-w / wc)
            return v * mpmath.coth(beta * w / 2) if beta is not None and not shift else v

        if shift:
            def head(w):
                return f(w) * (w * t - mpmath.sin(w * t))

            def smooth(w):
                return f(w) * w * t
        else:
            def head(w):
                return 2 * f(w) * mpmath.sin(w * t / 2) ** 2

            smooth = f
        w1 = 2 * mpmath.pi / t
        inner = mpmath.quad(head, [0] + [wc * k for k in (1, 8) if wc * k < w1] + [w1])
        outer = mpmath.quad(smooth, [w1] + [w for w in (wc, 8 * wc) if w > w1] + [mpmath.inf])
        ray = mpmath.quad(
            lambda u: f(mpmath.mpc(w1, u)) * mpmath.exp(-u * t), [0, 2 / t, 16 / t, mpmath.inf]
        )
        osc = mpmath.mpc(0, 1) * mpmath.expj(w1 * t) * ray
        if shift:
            return float(spec.eta * (inner + outer - mpmath.im(osc)))
        return float(4 * spec.eta * (inner + outer - mpmath.re(osc)))


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

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(1e-300, 50.0))
    @example(x=1e-4)
    @example(x=20.0)
    def test_within_two_ulp_of_mpmath(self, x):
        with mpmath.workdps(40):
            ref = mpmath.coth(mpmath.mpf(x))
            assert abs(float((mpmath.mpf(coth(x)) - ref) / ref)) <= 2 * 2.23e-16


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
        closed = zero_t_b2(t, spec)
        assert mpmath_direct(t, spec) == pytest.approx(closed, rel=1e-12, abs=0.0)
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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing_exponent(-0.5, bench_spec())


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
        ref = mpmath_b2(t, spec)
        assert dephasing_exponent(t, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "temp_mk, omega_c, t",
        [(1.0, 200.0, 1e-4), (30.0, 1e4, 1e3)],
    )
    def test_quadrature_defect_points_match_mpmath(self, temp_mk, omega_c, t):
        # the quadrature path is off by 6e-7 and 4e-3 here
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
    def test_matches_quadrature(self, temp_mk, omega_c):
        # against the direct integral, which does not expand coth
        spec = bench_spec(omega_c=omega_c, beta=temperature_to_beta(temp_mk))
        for t in np.geomspace(1e-4, 100.0, 4):
            t = float(t)
            quad = mpmath_direct(t, spec)
            assert dephasing_exponent(t, spec) == pytest.approx(quad, rel=1e-12, abs=0.0)


class TestKernel:
    """B2 and C for every s >= 1 against mpmath, to 1e-12 relative."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.0, 4.0),
        temp_mk=st.one_of(st.none(), st.floats(1.0, 300.0)),
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
    def test_matches_mpmath(self, s, temp_mk, log_omega_c, log_t):
        beta = math.inf if temp_mk is None else temperature_to_beta(temp_mk)
        spec = bench_spec(s=s, omega_c=10.0**log_omega_c, beta=beta)
        t = 10.0**log_t
        assert dephasing_exponent(t, spec) == pytest.approx(mpmath_b2(t, spec), rel=1e-12, abs=0.0)
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
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([2.0, 1.0]), g_sq=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([1.0, 2.0]), g_sq=np.array([1.0, -1.0]))
        # 2.5 modes used to give three bins at 20, 60 and 100, past omega_max
        with pytest.raises(TypeError):
            discretize_bath(bench_spec(), 2.5, 100.0)

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
            spec.eta * spec.omega_c**2, rel=1e-3
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

    def test_phase_shift_modes_converge(self):
        spec = bench_spec(beta=math.inf)
        bath = discretize_bath(spec, 100000, 60.0 * spec.omega_c)
        x = spec.omega_c * 0.5
        closed = spec.eta * (x - math.atan(x))
        assert phase_shift_modes(0.5, bath) == pytest.approx(closed, rel=1e-4, abs=0.0)


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
        with pytest.raises(ValueError):
            influence_exponent(1, -1, math.nan, 0.0)
