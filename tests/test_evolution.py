import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decoq import linspace
from decoq.bath import BathSpec, dephasing_exponent
from decoq.evolution import (
    COMPUTATIONAL,
    EIGENBASIS,
    NoCrossingError,
    _bisect,
    low_decoherence_time,
    max_decoherence,
    pure_state_norm,
)
from decoq.states import (
    DeviationOperator,
    QubitState,
    bloch_supremum_scan,
    deviation,
    deviation_norm,
    deviation_norm_closed_form,
    evolve_ideal,
    evolve_real,
    evolve_real_influence_sum,
    pure_state,
    random_density_matrix,
)
from decoq.units import temperature_to_beta

E_J = 51.8


class TestQubitState:
    def test_accepts_valid(self):
        st = QubitState(np.diag([0.3, 0.7]).astype(complex))
        assert st.basis == EIGENBASIS
        assert not st.rho.flags.writeable

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            QubitState(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            QubitState(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(ValueError):
            QubitState(rho)

    def test_rejects_bad_basis_tag(self):
        with pytest.raises(ValueError):
            QubitState(np.diag([0.5, 0.5]).astype(complex), "charge")

    def test_deviation_operator_rejects_bad_basis_tag(self):
        with pytest.raises(ValueError, match="basis must be one of"):
            DeviationOperator(np.diag([0.1, -0.1]), "bloch")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QubitState(np.eye(3, dtype=complex) / 3.0)

    @pytest.mark.parametrize(
        "entries",
        [np.full((2, 2), math.nan), [[math.nan, 0.0], [0.0, 1.0]],
         [[0.5, math.inf], [math.inf, 0.5]]],
        ids=["all-nan", "nan-population", "inf-coherence"],
    )
    def test_rejects_non_finite(self, entries):
        # every comparison with nan is false, so the tolerance checks alone
        # would pass these
        with pytest.raises(ValueError, match="non-finite"):
            QubitState(entries)
        with pytest.raises(ValueError, match="non-finite"):
            DeviationOperator(entries)


class TestPureState:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(pure_state(0.0).rho, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(pure_state(math.pi).rho, np.diag([0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(
            pure_state(math.pi / 2.0).rho, 0.5 * np.ones((2, 2)), atol=1e-15
        )

    def test_azimuthal_phase(self):
        st = pure_state(math.pi / 2.0, math.pi / 2.0)
        assert st.rho[1, 0] == pytest.approx(0.5j, abs=1e-15)

    def test_purity(self, rng):
        for _ in range(20):
            st = pure_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert np.trace(st.rho @ st.rho).real == pytest.approx(1.0, abs=1e-12)


class TestEvolveIdeal:
    def test_populations_fixed_phase_advances(self, rng):
        st = random_density_matrix(rng)
        t = 0.37
        out = evolve_ideal(st, t, E_J)
        assert out.rho[0, 0] == pytest.approx(st.rho[0, 0], abs=1e-15)
        assert out.rho[1, 0] == pytest.approx(st.rho[1, 0] * np.exp(1j * t * E_J), abs=1e-14)

    def test_requires_eigenbasis(self, rng):
        st = random_density_matrix(rng, basis=COMPUTATIONAL)
        with pytest.raises(ValueError):
            evolve_ideal(st, 0.1, E_J)


class TestEvolveReal:
    def test_no_dephasing_reduces_to_ideal(self, rng):
        st = random_density_matrix(rng)
        a = evolve_real(st, 0.0, 0.4, E_J)
        b = evolve_ideal(st, 0.4, E_J)
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-14)

    def test_full_charge_dephasing_limit(self, rng):
        # B^2 -> inf wipes charge coherence, which pins the eigenbasis
        # populations to 1/2 and leaves the symmetrized charge coherence
        st = random_density_matrix(rng)
        out = evolve_real(st, 700.0, 0.4, E_J)
        assert out.rho[1, 1].real == pytest.approx(0.5, abs=1e-12)
        expected = 0.5 * (st.rho[0, 1] + st.rho[1, 0] * np.exp(1j * 0.4 * E_J))
        assert out.rho[1, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_influence_sum_on_random_states(self, rng):
        worst = 0.0
        for _ in range(300):
            st = random_density_matrix(rng)
            b2 = float(rng.uniform(0.0, 2.5))
            shift = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 2.0))
            fast = evolve_real(st, b2, t, E_J)
            slow = evolve_real_influence_sum(st, b2, shift, t, E_J)
            worst = max(worst, float(np.max(np.abs(fast.rho - slow.rho))))
        assert worst < 1e-12

    def test_shift_drops_out_of_reduced_dynamics(self, rng):
        st = random_density_matrix(rng)
        a = evolve_real_influence_sum(st, 0.3, 0.0, 0.7, E_J)
        b = evolve_real_influence_sum(st, 0.3, 5.0, 0.7, E_J)
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-14)

    def test_cptp_on_many_states(self, rng):
        for _ in range(500):
            st = random_density_matrix(rng)
            out = evolve_real(st, float(rng.uniform(0, 3)), float(rng.uniform(0, 2)), E_J)
            assert abs(np.trace(out.rho) - 1.0) < 1e-12
            assert np.max(np.abs(out.rho - out.rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out.rho).min() > -1e-10

    def test_validation(self, rng):
        st = random_density_matrix(rng)
        with pytest.raises(ValueError):
            evolve_real(st, -0.1, 0.4, E_J)
        with pytest.raises(ValueError):
            evolve_real(st, 0.1, 0.4, -1.0)


class TestDeviation:
    def test_traceless_hermitian(self, rng):
        st = random_density_matrix(rng)
        dev = deviation(evolve_real(st, 0.3, 0.5, E_J), evolve_ideal(st, 0.5, E_J))
        assert abs(np.trace(dev.sigma)) < 1e-14
        np.testing.assert_allclose(dev.sigma, dev.sigma.conj().T, atol=1e-14)

    def test_basis_mismatch_rejected(self, rng):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng, basis=COMPUTATIONAL)
        with pytest.raises(ValueError):
            deviation(a, b)

    def test_norm_is_largest_eigenvalue_magnitude(self, rng):
        st = random_density_matrix(rng)
        dev = deviation(evolve_real(st, 0.4, 0.8, E_J), evolve_ideal(st, 0.8, E_J))
        expect = np.max(np.abs(np.linalg.eigvalsh(dev.sigma)))
        assert deviation_norm(dev) == pytest.approx(expect, abs=1e-13)

    def test_closed_form_matches_pipeline(self, rng):
        worst = 0.0
        for _ in range(300):
            st = random_density_matrix(rng)
            b2 = float(rng.uniform(0.0, 2.5))
            t = float(rng.uniform(0.0, 2.0))
            direct = deviation_norm(
                deviation(evolve_real(st, b2, t, E_J), evolve_ideal(st, t, E_J))
            )
            closed = float(deviation_norm_closed_form(st, b2, t, E_J))
            worst = max(worst, abs(direct - closed))
        assert worst < 1e-12

    def test_point_preset_attains_supremum(self):
        for b2 in (0.01, 0.1, 1.0):
            norm = deviation_norm_closed_form(pure_state(0.0), b2, 0.3, E_J)
            assert norm == pytest.approx(max_decoherence(b2), rel=0.0, abs=1e-15)


class TestPureStateNorm:
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        # normal doubles: a subnormal D carries no 1e-15 relative precision
        b2=st.floats(1e-300, 5.0),
        t=st.floats(0.0, 1000.0),
        e_j=st.floats(0.0, 200.0),
    )
    @example(theta=math.pi / 2.0, phi=0.0, b2=0.0, t=0.25, e_j=E_J)
    def test_matches_closed_form_of_pure_state(self, theta, phi, b2, t, e_j):
        ref = deviation_norm_closed_form(pure_state(theta, phi), b2, t, e_j)
        got = pure_state_norm(theta, phi, b2, t, e_j)
        assert abs(got - ref) <= 1e-15 * max_decoherence(b2)


class TestClosedFormArguments:
    @pytest.mark.parametrize(
        "t,e_j",
        [(math.nan, E_J), (math.inf, E_J), (-math.inf, E_J), (0.5, -1.0), (0.5, math.nan),
         (0.5, math.inf)],
    )
    def test_rejected_as_evolve_real_rejects_them(self, t, e_j):
        state = pure_state(0.3)
        with pytest.raises(ValueError) as expected:
            evolve_real(state, 0.3, t, e_j)
        with pytest.raises(ValueError) as closed:
            deviation_norm_closed_form(state, 0.3, t, e_j)
        with pytest.raises(ValueError) as pure:
            pure_state_norm(0.3, 0.0, 0.3, t, e_j)
        assert str(closed.value) == str(pure.value) == str(expected.value)

    def test_infinite_b2_still_gives_one_half(self):
        assert deviation_norm_closed_form(pure_state(0.0), math.inf, 0.3, E_J) == 0.5
        assert pure_state_norm(0.0, 0.0, math.inf, 0.3, E_J) == 0.5


class TestLinspace:
    @given(
        lo=st.floats(-1e300, 1e300) | st.just(0.0),
        hi=st.floats(-1e300, 1e300),
        n=st.integers(2, 3000),
    )
    @example(lo=0.0, hi=0.5, n=400)  # curve's default grid
    @example(lo=0.0, hi=10.0, n=2049)  # the dense first-crossing scan
    @example(lo=-3.5e-7, hi=0.5000035, n=5)  # svgplot's ticks
    @example(lo=0.0, hi=5e-324, n=5)  # the step underflows to zero
    @example(lo=1.0, hi=1.0, n=5)
    def test_equals_numpy_linspace(self, lo, hi, n):
        assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


class TestMaxDecoherence:
    def test_values(self):
        assert max_decoherence(0.0) == 0.0
        assert max_decoherence(1e-4) == pytest.approx(0.5e-4, rel=1e-3, abs=0.0)
        assert float(max_decoherence(1e3)) == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert max_decoherence(math.inf) == 0.5

    def test_monotone_and_array(self):
        # one float per sample: the scalar form serves curve's grid
        d = [max_decoherence(b2) for b2 in np.linspace(0.0, 5.0, 50)]
        assert all(type(v) is float for v in d)
        assert all(hi > lo for lo, hi in zip(d, d[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            max_decoherence(-0.5)
        with pytest.raises(ValueError):
            max_decoherence(math.nan)


class TestBlochSupremum:
    def test_never_exceeds_bound_and_attained_at_pole(self, rng):
        for _ in range(10):
            b2 = float(rng.uniform(1e-4, 1.5))
            t = float(rng.uniform(0.05, 2.0))
            best, theta, _ = bloch_supremum_scan(b2, t, E_J)
            bound = float(max_decoherence(b2))
            assert best <= bound + 1e-12
            assert abs(best - bound) < 1e-6
            assert theta == 0.0

    def test_infinite_dephasing_reaches_one_half(self):
        assert bloch_supremum_scan(math.inf, 0.3, E_J)[0] == 0.5

    @pytest.mark.parametrize(
        "b2,t,e_j,message",
        [(math.nan, 0.3, 51.8, "dephasing exponent"), (-1.0, 0.3, 51.8, "dephasing exponent"),
         (0.4, math.inf, 51.8, "time must be finite"), (0.4, math.nan, 51.8, "time must be finite"),
         (0.4, 0.3, -1.0, "E_J must be finite"), (0.4, 0.3, math.inf, "E_J must be finite")],
    )
    def test_rejects_bad_arguments(self, b2, t, e_j, message):
        # these used to return nan, a negative "supremum" or a numpy warning
        with pytest.raises(ValueError, match=message):
            bloch_supremum_scan(b2, t, e_j)


def assert_first_double_at_threshold(d, tau, threshold):
    """tau is a double at the threshold whose predecessor lies below it."""
    below = math.nextafter(tau, 0.0)
    assert d(tau) >= threshold
    # bisection from lo = 0 ends on the smallest double, never probing 0
    assert below == 0.0 or d(below) < threshold


def counted(d):
    """d, and the list that records every t it is probed at."""
    probes = []

    def wrapped(t):
        probes.append(t)
        return d(t)

    return wrapped, probes


class TestFindCrossing:
    # _bisect halves the bit patterns of its bracket until its ends are
    # adjacent doubles: at most 64 probes, wherever in (lo, hi] the
    # crossing lies

    def test_monotone_analytic(self):
        d, probes = counted(lambda t: 0.5 * (1.0 - math.exp(-t)))
        tau = _bisect(d, 0.25, 0.0, 10.0)
        assert tau == pytest.approx(math.log(2.0), rel=1e-6)
        assert len(probes) <= 64

    def test_bracket_ends_on_adjacent_doubles(self):
        # the crossing resolves to the spacing of doubles at ln 2 and no finer
        def d(t):
            return 0.5 * (1.0 - math.exp(-t))

        counted_d, probes = counted(d)
        tau = _bisect(counted_d, 0.25, 0.0, 10.0)
        assert_first_double_at_threshold(d, tau, 0.25)
        assert len(probes) <= 64

    def test_constant_above_threshold_gives_smallest_double(self):
        d, probes = counted(lambda t: 0.4)
        assert _bisect(d, 0.1, 0.0, 10.0) == 5e-324
        assert 0.0 not in probes and len(probes) <= 64

    def test_crossing_far_below_seed_is_resolved(self):
        # a crossing 2^-200 below 1e-4 costs no more probes than one near 1
        c = 1e-4 * 2.0**-200 * 1.37
        d, probes = counted(lambda t: 0.5 * (1.0 - math.exp(-t / c)))
        tau = _bisect(d, 0.25, 0.0, 10.0)
        assert tau == pytest.approx(c * math.log(2.0), rel=1e-8, abs=0.0)
        assert len(probes) <= 64

    def test_subnormal_crossing_is_found(self):
        # doubles are 5e-324 apart here; the step lands on one exactly
        d, probes = counted(lambda t: 0.4 if t >= 1e-320 else 0.0)
        assert _bisect(d, 0.25, 0.0, 10.0) == 1e-320
        assert len(probes) <= 64

    def test_no_crossing_error_carries_level(self):
        # s > 2 with t_rise < t_max: D(t_rise) and D(t_max) both stay below
        # the threshold, so no bracket is proved and the error reports D(t_max)
        spec = BathSpec(eta=1e-12, omega_c=200.0, beta=temperature_to_beta(30.0), s=3.0)
        assert math.tan(math.pi / spec.s) / spec.omega_c < 1.0
        with pytest.raises(NoCrossingError, match="never reaches") as err:
            low_decoherence_time(1e-4, spec, 1.0)
        d_end = max_decoherence(dephasing_exponent(1.0, spec))
        assert err.value.d_at_t_max == d_end < 1e-4


def mpmath_ohmic_root(threshold, spec, dps=40):
    """Root of the s = 1 closed form B2(t) = -ln(1 - 2 threshold) in mpmath.

    B2 = 4 eta [ln(1 + w_c^2 t^2)/2 + 2 ln G(1+a) - 2 Re ln G(1+a+iy)],
    a = 1/(beta w_c), y = t/beta (Leggett et al., RMP 59, 1 (1987)).
    """
    with mpmath.workdps(dps):
        eta, wc, beta = (mpmath.mpf(v) for v in spec[:3])
        a = 1 / (beta * wc)
        target = -mpmath.log1p(-2 * mpmath.mpf(threshold))

        def f(t):
            gammas = mpmath.loggamma(1 + a) - mpmath.re(mpmath.loggamma(1 + a + 1j * t / beta))
            return 4 * eta * (mpmath.log1p((wc * t) ** 2) / 2 + 2 * gammas) - target

        lo = mpmath.mpf(1e-6)
        hi = lo
        while f(hi) < 0:
            lo, hi = hi, 2 * hi
        return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


class TestLowDecoherenceTime:
    SPEC = BathSpec(eta=1e-4, omega_c=200.0, beta=temperature_to_beta(30.0))

    def test_crossing_level_is_threshold(self):
        tau = low_decoherence_time(1e-4, self.SPEC, 5.0)
        d_tau = float(max_decoherence(dephasing_exponent(tau, self.SPEC)))
        assert d_tau == pytest.approx(1e-4, rel=1e-2, abs=0.0)
        assert 0.0 < tau < 5.0

    @settings(deadline=None)
    @given(
        s=st.floats(1.0, 2.0),
        temp_mk=st.floats(1.0, 300.0),
        omega_c=st.floats(50.0, 1e4),
        eta=st.floats(1e-7, 1e-5),
        threshold=st.floats(1e-5, 1e-3),
    )
    def test_first_double_at_threshold(self, s, temp_mk, omega_c, eta, threshold):
        # B2 is monotone for 1 <= s <= 2, so the dense fallback never warns
        spec = BathSpec(eta, omega_c, temperature_to_beta(temp_mk), s)
        try:
            tau = low_decoherence_time(threshold, spec, 1000.0)
        except NoCrossingError:
            return

        def d(t):
            return max_decoherence(dephasing_exponent(t, spec))

        assert_first_double_at_threshold(d, tau, threshold)

    @pytest.mark.parametrize(
        "temp_mk,omega_c,eta,threshold",
        [
            (30.0, 200.0, 1e-6, 1e-4),
            (1.0, 50.0, 1e-7, 1e-5),
            (300.0, 1e4, 1e-5, 1e-3),
            (100.0, 800.0, 3e-6, 2e-4),
        ],
    )
    def test_ohmic_root_matches_mpmath(self, temp_mk, omega_c, eta, threshold):
        spec = BathSpec(eta, omega_c, temperature_to_beta(temp_mk))
        tau = low_decoherence_time(threshold, spec, 1000.0)
        root = mpmath_ohmic_root(threshold, spec)
        assert tau == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_stronger_coupling_shortens_window(self):
        weak = low_decoherence_time(1e-4, self.SPEC, 5.0)
        strong_spec = BathSpec(eta=1e-3, omega_c=200.0, beta=self.SPEC.beta)
        strong = low_decoherence_time(1e-4, strong_spec, 5.0)
        assert strong < weak

    def test_no_crossing(self):
        tame = BathSpec(eta=1e-12, omega_c=200.0, beta=self.SPEC.beta)
        with pytest.raises(NoCrossingError) as err:
            low_decoherence_time(1e-4, tame, 1.0)
        d_end = max_decoherence(dephasing_exponent(1.0, tame))
        assert err.value.d_at_t_max == d_end < 1e-4

    BETA_30MK = temperature_to_beta(30.0)

    @pytest.mark.parametrize(
        "spec,threshold,t_max,tau,calls",
        [
            # the benchmark point, and the tld runs of tests/golden
            (BathSpec(1e-6, 200.0, BETA_30MK), 1e-4, 10.0, 5.8583302660491405, 63),
            (BathSpec(1e-6, 200.0, BETA_30MK, 80.0), 1e-4, 10.0, 2.404047425476015e-152, 63),
            (BathSpec(1e-9, 200.0, BETA_30MK, 3.0), 8.5e-5, 1000.0, 0.005796217996904163, 63),
            (BathSpec(1.0598897093789957e-09, 44.12905023409275,
                      temperature_to_beta(69.74256994832315), 2.627190751706458),
             9.794163274970207e-07, 0.27958368503951514, 0.0630166818734783, 507),
            (BathSpec(1e-6, 200.0, BETA_30MK), 1e-4, 1.0, None, 1),
        ],
        ids=["benchmark", "s80", "s3", "hump", "no-crossing"],
    )
    def test_b2_probe_counts(self, monkeypatch, spec, threshold, t_max, tau, calls):
        # one probe at min(t_rise, t_max), one at t_max if that falls short,
        # then the bisection (and past t_rise the grid): B2 is memoized
        import decoq.evolution

        probes = []

        def counting(t, spec):
            probes.append(t)
            return dephasing_exponent(t, spec)

        monkeypatch.setattr(decoq.evolution, "dephasing_exponent", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the hump's past-t_rise search
            if tau is None:
                with pytest.raises(NoCrossingError):
                    low_decoherence_time(threshold, spec, t_max)
            else:
                assert low_decoherence_time(threshold, spec, t_max) == pytest.approx(
                    tau, rel=1e-15, abs=0.0)
        assert len(probes) == calls

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            low_decoherence_time(0.6, self.SPEC, 1.0)
        with pytest.raises(ValueError):
            low_decoherence_time(0.0, self.SPEC, 1.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
    def test_t_max_validation(self, t_max):
        with pytest.raises(ValueError, match="t_max must be finite and > 0"):
            low_decoherence_time(1e-4, self.SPEC, t_max)

    @settings(deadline=None)
    @given(
        s=st.floats(2.0, 6.0, exclude_min=True),
        temp_mk=st.floats(1.0, 300.0),
        omega_c=st.floats(50.0, 1e3),
        log_eta=st.floats(-9.0, -5.0),  # spread over the decades, not piled near 1e-5
        u=st.floats(0.05, 1.0),
    )
    def test_superohmic_crossing_on_the_rise(self, s, temp_mk, omega_c, log_eta, u):
        # every B2 term rises while omega_c t <= tan(pi/s), so a threshold
        # met there is crossed first on [0, t_rise], whatever D does later
        spec = BathSpec(10.0**log_eta, omega_c, temperature_to_beta(temp_mk), s)
        t_rise = math.tan(math.pi / s) / omega_c

        def d(t):
            return max_decoherence(dephasing_exponent(t, spec))

        threshold = d(u * t_rise)
        assume(0.0 < threshold < 0.5)
        tau = low_decoherence_time(threshold, spec, max(1000.0, 2.0 * t_rise))
        assert_first_double_at_threshold(d, tau, threshold)
        assert tau <= t_rise
        assert all(d(t) < threshold for t in linspace(0.0, tau, 2001)[:-1])


    @settings(deadline=None, max_examples=50)
    @given(
        s=st.floats(2.0, 4.0, exclude_min=True),
        temp_mk=st.floats(10.0, 1e4),
        omega_c=st.floats(1.0, 100.0),
        log_eta=st.floats(-9.0, -5.0),
        log_span=st.floats(0.1, 3.0),
        u=st.floats(0.01, 1.0),
    )
    def test_first_crossing_past_the_rise(self, s, temp_mk, omega_c, log_eta, log_span, u):
        # past t_rise D may fall and rise again; the first cell of the
        # 2049-point grid that reaches the threshold is bisected, with a warning
        spec = BathSpec(10.0**log_eta, omega_c, temperature_to_beta(temp_mk), s)
        t_rise = math.tan(math.pi / s) / omega_c
        t_max = t_rise * 10.0**log_span

        def d(t):
            return max_decoherence(dephasing_exponent(t, spec))

        d_rise, d_end = d(t_rise), d(t_max)
        threshold = d_rise + u * (d_end - d_rise)
        assume(d_rise < threshold <= d_end < 0.5)
        with pytest.warns(RuntimeWarning, match=rf"past t_rise=\S+ at s={re.escape(str(s))};"):
            tau = low_decoherence_time(threshold, spec, t_max)
        assert_first_double_at_threshold(d, tau, threshold)
        assert tau >= t_rise
        assert all(d(t) < threshold for t in linspace(0.0, t_max, 2049) if t < tau)


def window_or_none(threshold, spec, t_max):
    try:
        return low_decoherence_time(threshold, spec, t_max)
    except NoCrossingError:
        return None


# the whole pipeline, B2 kernel plus root find, over the monotone exponents
PIPELINE = dict(
    s=st.floats(1.0, 2.0),
    temp_mk=st.floats(1.0, 300.0),
    omega_c=st.floats(50.0, 1e4),
    eta=st.floats(1e-9, 1e-5),
    threshold=st.floats(1e-5, 1e-3),
    t_max=st.floats(0.01, 1000.0),
)


class TestPipelineProperties:
    @settings(deadline=None)
    @given(lam=st.floats(0.1, 10.0), **dict(PIPELINE, s=st.floats(1.0, 6.0)))
    # a first crossing past t_rise, which only the grid finds
    @example(
        s=2.627190751706458, temp_mk=69.74256994832315, omega_c=44.12905023409275,
        eta=1.0598897093789957e-09, threshold=9.794163274970207e-07,
        t_max=0.27958368503951514, lam=3.0,
    )
    def test_scaling_covariance(self, s, temp_mk, omega_c, eta, threshold, t_max, lam):
        # omega_c -> lam omega_c, T -> lam T and eta -> lam^(1-s) eta turn
        # B2(t) into B2(lam t), so the window shrinks by lam
        spec = BathSpec(eta, omega_c, temperature_to_beta(temp_mk), s)
        scaled = BathSpec(
            lam ** (1.0 - s) * eta, lam * omega_c, temperature_to_beta(lam * temp_mk), s
        )
        # a D(t_max), or for s > 2 a D(t_rise), within round-off of the
        # threshold leaves the verdict to rounding
        probes = [t_max]
        if s > 2.0:
            probes.append(math.tan(math.pi / s) / omega_c)
        for t in probes:
            d_probe = max_decoherence(dephasing_exponent(t, spec))
            assume(abs(d_probe / threshold - 1.0) > 1e-9)
        with warnings.catch_warnings():
            # past t_rise the search warns that D is not known to be monotone
            warnings.simplefilter("ignore", RuntimeWarning)
            tau = window_or_none(threshold, spec, t_max)
            tau_scaled = window_or_none(threshold, scaled, t_max / lam)
        assert (tau is None) == (tau_scaled is None)
        if tau is not None:
            assert lam * tau_scaled == pytest.approx(tau, rel=1e-12, abs=0.0)

    @settings(deadline=None)
    @given(axis=st.sampled_from(["temp_mk", "eta", "omega_c"]), factor=st.floats(1.01, 10.0),
           **PIPELINE)
    def test_window_does_not_grow_with_temperature_or_coupling(
        self, s, temp_mk, omega_c, eta, threshold, t_max, axis, factor
    ):
        # sweep --check's rule: a hotter, more strongly coupled or wider
        # band bath dephases faster, so tau_ld may not rise by more than 1e-9
        base = {"temp_mk": temp_mk, "eta": eta, "omega_c": omega_c}
        grown = dict(base, **{axis: factor * base[axis]})

        def spec_of(p):
            return BathSpec(p["eta"], p["omega_c"], temperature_to_beta(p["temp_mk"]), s)

        tau = window_or_none(threshold, spec_of(base), t_max)
        if tau is None:
            return
        assert low_decoherence_time(threshold, spec_of(grown), t_max) <= tau * (1.0 + 1e-9)


class TestRecords:
    def test_deviation_operator_validation(self):
        with pytest.raises(ValueError):
            DeviationOperator(np.diag([0.2, 0.1]).astype(complex), EIGENBASIS)
