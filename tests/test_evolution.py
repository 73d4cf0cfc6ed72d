import cmath
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decoq import linspace
from decoq.bath import BathSpec, _b2_peak_bound, dephasing_exponent
from decoq.cli import PRESETS, RunConfig
from decoq.evolution import (
    COMPUTATIONAL,
    EIGENBASIS,
    NoCrossingError,
    _bisect,
    _crossing,
    idle_window,
    low_decoherence_time,
    max_decoherence,
    pure_state_norm,
)
from decoq.oracle import (
    CompositeSystem,
    TruncatedBathMode,
    evolve_exact,
    evolve_split,
    gate_unitary,
)
from decoq.states import (
    QubitState,
    basis_change,
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
from golden.cases import BATHS
from references import (
    CHI,
    charge_basis_factor,
    influence_sum_reference,
    mpmath_b2,
    mpmath_d,
    mpmath_norm,
    mpmath_root,
    on_the_rise,
)

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

    def test_exact_input_is_kept_as_given(self):
        rho = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
        assert QubitState(rho).rho.tobytes() == rho.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), radius=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_states_within_the_tolerances_stay_accepted(self, data, radius, theta, phi):
        # the record keeps the hermitian part with trace 1 exactly, so a basis
        # change and the oracle maps pass the checks that their round-off alone
        # used to fail, and a difference of two states is exactly hermitian
        x, y = radius * math.sin(theta) * math.cos(phi), radius * math.sin(theta) * math.sin(phi)
        z = radius * math.cos(theta)
        bloch = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
        # each noise part is at most 0.35e-12, so the skew and the trace error stay below 1e-12
        part = st.floats(-0.35e-12, 0.35e-12)
        noisy = lambda: bloch + np.array(  # noqa: E731
            [[complex(data.draw(part), data.draw(part)) for _ in range(2)] for _ in range(2)])
        system = CompositeSystem(E_J, (TruncatedBathMode(30.0, 0.5, 4),))
        for basis in (EIGENBASIS, COMPUTATIONAL):
            state = QubitState(noisy(), basis)
            (r00, r01), (r10, r11) = state.rho.tolist()
            assert r00 + r11 == 1.0 and r01 == r10.conjugate() and r00.imag == r11.imag == 0.0
            assert basis_change(basis_change(state)).basis == basis
            evolve_exact(system, state, 1.0, 0.1)
            evolve_split(system, state, 1.0, 0.1)
            (d00, d01), (d10, d11) = deviation(state, QubitState(noisy(), basis)).tolist()
            assert d01 == d10.conjugate() and d00.imag == d11.imag == 0.0
            assert abs(d00 + d11) <= math.ulp(1.0)


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
            t = float(rng.uniform(0.0, 2.0))
            fast = evolve_real(st, b2, t, E_J)
            slow = evolve_real_influence_sum(st, b2, t, E_J)
            worst = max(worst, float(np.max(np.abs(fast.rho - slow.rho))))
        assert worst < 1e-12

    def test_shift_drops_out_of_reduced_dynamics(self, rng):
        # the reference keeps the shift term -i C (chi^2 - chi'^2); the map takes no C
        st = random_density_matrix(rng)
        got = evolve_real_influence_sum(st, 0.3, 0.7, E_J).rho
        for shift in (0.0, 5.0):
            np.testing.assert_allclose(
                influence_sum_reference(st, 0.3, shift, 0.7, E_J), got, atol=1e-14)

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
        assert abs(np.trace(dev)) < 1e-14
        np.testing.assert_allclose(dev, dev.conj().T, atol=1e-14)
        assert not dev.flags.writeable

    def test_basis_mismatch_rejected(self, rng):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng, basis=COMPUTATIONAL)
        with pytest.raises(ValueError):
            deviation(a, b)

    def test_norm_is_largest_eigenvalue_magnitude(self, rng):
        st = random_density_matrix(rng)
        dev = deviation(evolve_real(st, 0.4, 0.8, E_J), evolve_ideal(st, 0.8, E_J))
        expect = np.max(np.abs(np.linalg.eigvalsh(dev)))
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

    @given(
        phi=st.floats(allow_nan=False, allow_infinity=False),
        b2=st.floats(0.0, math.inf),
        t=st.floats(allow_nan=False, allow_infinity=False),
        e_j=st.floats(0.0, allow_infinity=False),
    )
    @example(phi=0.0, b2=math.inf, t=0.25, e_j=E_J)
    def test_pole_state_norm_is_max_decoherence(self, phi, b2, t, e_j):
        # curve writes the pole's norm once, as D
        assume(math.isfinite(t * e_j))
        assert pure_state_norm(0.0, phi, b2, t, e_j) == max_decoherence(b2)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(1.0, 6.0),
        temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_eta=st.floats(-9.0, -5.0),
        log_t=st.floats(-7.0, 1.0),
        e_j=st.floats(5.0, 500.0),
    )
    def test_curve_columns_match_mpmath(self, s, temp_mk, log_omega_c, log_eta, log_t, e_j):
        # curve's D and norm_* columns, formed from B2 as cmd_curve forms them
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        spec = BathSpec(10.0**log_eta, 10.0**log_omega_c, beta, s)
        t = 10.0**log_t
        b2 = dephasing_exponent(t, spec)
        d_ref = mpmath_d(t, spec)
        assert max_decoherence(b2) == pytest.approx(d_ref, rel=1e-12, abs=0.0)
        for theta, phi in PRESETS.values():
            ref = mpmath_norm(d_ref, theta, phi, t, e_j)
            assert abs(pure_state_norm(theta, phi, b2, t, e_j) - ref) <= 1e-12 * d_ref


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


class TestDephasingRule:
    # every entry point that takes B2, with the other arguments valid
    ENTRY_POINTS = {
        "max_decoherence": max_decoherence,
        "pure_state_norm": lambda b2: pure_state_norm(0.3, 0.2, b2, 0.4, E_J),
        "deviation_norm_closed_form": lambda b2: deviation_norm_closed_form(
            pure_state(0.3), b2, 0.4, E_J),
        "bloch_supremum_scan": lambda b2: bloch_supremum_scan(b2, 0.4, E_J),
        "evolve_real": lambda b2: evolve_real(pure_state(0.3), b2, 0.4, E_J),
        "evolve_real_influence_sum": lambda b2: evolve_real_influence_sum(
            pure_state(0.3), b2, 0.4, E_J),
    }

    @pytest.mark.parametrize("b2", [math.nan, -1.0], ids=["nan", "negative"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_one_message_for_every_entry_point(self, entry, b2):
        with pytest.raises(ValueError) as caught:
            self.ENTRY_POINTS[entry](b2)
        assert str(caught.value) == f"dephasing exponent must be >= 0, got {b2}"

    def test_infinite_b2_is_full_dephasing_in_both_maps(self, rng):
        # u = exp(-B2) is 0, as it already is in double precision at B2 = 800
        for _ in range(50):
            state = random_density_matrix(rng)
            t = float(rng.uniform(0.0, 2.0))
            fast = evolve_real(state, math.inf, t, E_J)
            slow = evolve_real_influence_sum(state, math.inf, t, E_J)
            assert np.max(np.abs(fast.rho - slow.rho)) <= 1e-15
            np.testing.assert_array_equal(fast.rho, evolve_real(state, 800.0, t, E_J).rho)
            # the limit of test_full_charge_dephasing_limit, reached exactly
            (r00, r01), (r10, r11) = state.rho
            assert abs(fast.rho[1, 1] - 0.5 * (r00 + r11)) <= 1e-15
            assert abs(fast.rho[1, 0] - 0.5 * (r01 + r10 * np.exp(1j * t * E_J))) <= 1e-15

    @pytest.mark.parametrize("chi", [1, -1])
    @pytest.mark.parametrize("shift", [0.0, 0.7, -2.0])
    def test_influence_exponent_of_equal_branches_is_zero_at_infinite_b2(self, chi, shift):
        # the factor evolve_real_influence_sum puts on the charge-basis entry
        # (chi, chi') at B2 = inf, read back from its output: 1 on equal
        # branches (not -inf * 0 = nan in the exponent), 0 on opposite ones
        state = pure_state(0.3, 0.2)
        got = evolve_real_influence_sum(state, math.inf, 0.4, E_J).rho
        f = charge_basis_factor(state.rho, got, 0.4, E_J)
        # the full factor exp(-B2 (chi - chi')^2/4 - i C (chi^2 - chi'^2)), with
        # any C, at a B2 where exp(-B2) underflows to 0, is the factor at B2 = inf
        for chi_ in (chi, -chi):
            full = cmath.exp(-800.0 * (chi - chi_) ** 2 / 4 - 1j * shift * (chi**2 - chi_**2))
            assert abs(f[CHI.index(chi), CHI.index(chi_)] - full) <= 2e-15
        want = influence_sum_reference(state, 800.0, shift, 0.4, E_J)
        assert np.max(np.abs(got - want)) <= 1e-15


# a one-mode oracle system whose E_J t overflows before its omega t does
DRIVEN = CompositeSystem(E_J, (TruncatedBathMode(8.0, 0.1, 4),))


class TestPhaseRule:
    # every map that turns the phase E_J t, with the other arguments valid
    ENTRY_POINTS = {
        "pure_state_norm": lambda t: pure_state_norm(0.3, 0.2, 0.1, t, E_J),
        "deviation_norm_closed_form": lambda t: deviation_norm_closed_form(
            pure_state(0.3), 0.1, t, E_J),
        "bloch_supremum_scan": lambda t: bloch_supremum_scan(0.1, t, E_J),
        "evolve_real": lambda t: evolve_real(pure_state(0.3), 0.1, t, E_J),
        "evolve_ideal": lambda t: evolve_ideal(pure_state(0.3), t, E_J),
        "evolve_real_influence_sum": lambda t: evolve_real_influence_sum(
            pure_state(0.3), 0.1, t, E_J),
        "gate_unitary": lambda t: gate_unitary(E_J, t),
        "evolve_exact": lambda t: evolve_exact(DRIVEN, pure_state(0.3), math.inf, t),
        "evolve_split": lambda t: evolve_split(DRIVEN, pure_state(0.3), math.inf, t),
    }

    @pytest.mark.parametrize("t", [1e307, -1e307], ids=["positive", "negative"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_one_message_for_a_phase_past_the_largest_double(self, entry, t):
        # E_J t = 5.18e308 overflows: the maps used to raise "math domain
        # error" or warn, naming neither t nor E_J
        with pytest.raises(ValueError) as caught:
            self.ENTRY_POINTS[entry](t)
        assert str(caught.value) == (
            f"E_J*t is not finite in double precision at E_J={E_J}, t={t}"
        )

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_a_phase_just_inside_is_computed(self, entry):
        self.ENTRY_POINTS[entry](3e306)


class TestLinspace:
    @given(
        lo=st.floats(-1e300, 1e300) | st.just(0.0),
        hi=st.floats(-1e300, 1e300),
        n=st.integers(2, 3000),
    )
    @example(lo=0.0, hi=0.5, n=400)  # curve's default grid
    @example(lo=0.0, hi=10.0, n=2049)  # a long grid with an odd count
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
        assert tau == pytest.approx(math.log(2.0), rel=1e-6, abs=0.0)
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
        # s > 2 with t_rise < t_max: D(t_rise) and the bound on D past t_rise
        # both stay below the threshold, and the error reports D(t_max)
        spec = BathSpec(eta=1e-12, omega_c=200.0, beta=temperature_to_beta(30.0), s=3.0)
        assert math.tan(math.pi / spec.s) / spec.omega_c < 1.0
        with pytest.raises(NoCrossingError, match="never reaches") as err:
            low_decoherence_time(1e-4, spec, 1.0)
        d_end = max_decoherence(dephasing_exponent(1.0, spec))
        assert err.value.d_at_t_max == d_end < 1e-4


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
        # B2 is monotone for 1 <= s <= 2, so the bisection of [0, t_max] finds the first crossing
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
        root = mpmath_root(threshold, spec, tau, 1000.0)
        assert tau == pytest.approx(root, rel=1e-12, abs=0.0)

    @settings(max_examples=24, deadline=None)
    @given(
        s=st.floats(1.0, 6.0, exclude_min=True),
        temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_eta=st.floats(-9.0, -5.0),
        u=st.floats(0.0, 1.0),
    )
    def test_root_matches_mpmath(self, s, temp_mk, log_omega_c, log_eta, u):
        # a threshold met at t_star: anywhere in the window for s <= 2, and
        # on the rise for s > 2, where B2 rises up to t_rise
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        spec = BathSpec(10.0**log_eta, 10.0**log_omega_c, beta, s)
        t_rise = math.tan(math.pi / s) / spec.omega_c if s > 2.0 else math.inf
        t_star = (0.05 + 0.95 * u) * t_rise if s > 2.0 else 10.0 ** (7.5 * u - 5.0)

        def d(t):
            return max_decoherence(dephasing_exponent(t, spec))

        threshold = d(t_star)
        assume(0.0 < threshold < 0.5)
        tau = low_decoherence_time(threshold, spec, 1000.0)
        # D at tau is the threshold to D's own tolerance
        assert mpmath_d(tau, spec) == pytest.approx(threshold, rel=1e-12, abs=0.0)
        # tau's relative error is D's over the log-slope d ln D/d ln t, which
        # falls to 0 where B2 saturates (s = 2 at T = 0), where it peaks
        # (t_rise) and where D nears 1/2
        slope = (d(tau * 1.0001) - d(tau * 0.9999)) / (2e-4 * d(tau))
        if slope >= 0.01:
            assert tau == pytest.approx(mpmath_root(threshold, spec, t_star, t_rise),
                                        rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize(
        "settings_,outcome,proof,calls",
        [
            # the benchmark point, and the tld runs of tests/golden
            ({}, 5.8583302660491405, "monotone", 63),
            (BATHS["s80"], 2.404047425476015e-152, "rise", 63),
            (BATHS["s3"], 0.005796217996904163, "rise", 63),
            (BATHS["s3-bound"], NoCrossingError, "bound", 2),
            (BATHS["hump"], ValueError, None, 1),
            ({"t_max": 1.0}, NoCrossingError, "t_max", 1),
        ],
        ids=["benchmark", "s80", "s3", "s3-bound", "hump", "no-crossing"],
    )
    def test_b2_probe_counts(self, monkeypatch, settings_, outcome, proof, calls):
        # one probe at min(t_rise, t_max), then the bisection, or one at
        # t_max for the level a no-crossing error carries: D at min(t_rise, t_max)
        # is kept for the messages, and the bound past t_rise probes nothing
        import decoq.evolution

        probes = []

        def counting(t, spec):
            probes.append(t)
            return dephasing_exponent(t, spec)

        cfg = RunConfig(**settings_)
        threshold, spec, t_max = cfg.threshold, cfg.bath_spec(), cfg.t_max
        monkeypatch.setattr(decoq.evolution, "dephasing_exponent", counting)
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                low_decoherence_time(threshold, spec, t_max)
        else:
            assert low_decoherence_time(threshold, spec, t_max) == pytest.approx(
                outcome, rel=1e-15, abs=0.0)
        assert len(probes) == calls
        # _crossing names its proof and counts the probes the wrapper sees;
        # with no proof either way it raises as low_decoherence_time does
        probes.clear()
        if proof is None:
            with pytest.raises(outcome):
                _crossing(threshold, spec, t_max)
        else:
            found = _crossing(threshold, spec, t_max)
            assert (found.proof, found.probes) == (proof, len(probes))
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
        # past t_rise D may fall and rise again, and a threshold that D
        # reaches there is above the bound too, so the window is refused
        spec = BathSpec(10.0**log_eta, omega_c, temperature_to_beta(temp_mk), s)
        t_rise = math.tan(math.pi / s) / omega_c
        t_max = t_rise * 10.0**log_span

        def d(t):
            return max_decoherence(dephasing_exponent(t, spec))

        d_rise, d_end = d(t_rise), d(t_max)
        threshold = d_rise + u * (d_end - d_rise)
        assume(d_rise < threshold <= d_end < 0.5)
        refusal = rf"past t_rise=\S+ is not proved at s={re.escape(str(s))}: D\(t_rise\)="
        with pytest.raises(ValueError, match=refusal):
            low_decoherence_time(threshold, spec, t_max)
        assert max_decoherence(_b2_peak_bound(spec)) >= d_end >= threshold


def eta_max_checked(threshold, spec, e_j):
    """idle_window's eta_max, checked as the first double with D(tau_g) >= threshold.

    Up to a threshold of 0.01 it is also one division away from L / b,
    b = B2/eta; nearer 1/2, D is flat over many ulps of B2, and the first
    double lies further from L / b.
    """
    tau_g = 1.0 / e_j
    eta = idle_window(threshold, spec, e_j, on_the_rise(10.0, spec)).eta_max
    d = lambda e: max_decoherence(dephasing_exponent(tau_g, spec._replace(eta=e)))  # noqa: E731
    assert d(eta) >= threshold > d(math.nextafter(eta, 0.0))
    if threshold <= 0.01:
        b2 = dephasing_exponent(tau_g, spec)
        assert eta == pytest.approx(spec.eta * -math.log1p(-2.0 * threshold) / b2,
                                    rel=1e-15, abs=0.0)
    return eta


class TestIdleWindow:
    @pytest.mark.parametrize(
        "e_j,message",
        [(math.inf, "e_j must be finite, got inf"), (math.nan, "e_j must be finite, got nan"),
         (0.0, "e_j must be positive, got 0.0"), (-1.0, "e_j must be positive, got -1.0")],
        ids=["inf", "nan", "zero", "negative"],
    )
    def test_gate_e_j_rule_names_the_failure(self, e_j, message):
        # inf used to be called not positive
        spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
        with pytest.raises(ValueError) as caught:
            idle_window(1e-4, spec, e_j, 10.0)
        assert str(caught.value) == message

    def test_eta_budget_at_the_benchmark_point(self):
        # the abstract's verdict holds up to 36 times the default eta
        spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
        assert eta_max_checked(1e-4, spec, E_J) == 3.604201689225632e-05

    def test_probes_and_the_gate_call_are_every_b2_call(self):
        # at the defaults the root find's probes and the one eta-free call at
        # the gate make the 64 B2 calls that TestTracedNames counts
        import decoq.evolution

        cfg = RunConfig()
        with mock.patch.object(decoq.evolution, "dephasing_exponent",
                               wraps=dephasing_exponent) as kernel:
            window = idle_window(cfg.threshold, cfg.bath_spec(), cfg.e_j, cfg.t_max)
        assert (window.proof, window.probes + 1, kernel.call_count) == ("monotone", 64, 64)

    def test_b2_at_the_gate_is_taken_once(self):
        # d_at_gate and the eta budget read one eta-free total, B2(tau_g) at
        # eta = 1/4; B2 at the configured eta was a second call at tau_g
        import decoq.evolution

        spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
        with mock.patch.object(decoq.evolution, "dephasing_exponent",
                               wraps=dephasing_exponent) as kernel:
            window = idle_window(1e-4, spec, E_J, 10.0)
        at_gate = [call.args for call in kernel.call_args_list if call.args[0] == 1.0 / E_J]
        assert at_gate == [(1.0 / E_J, spec._replace(eta=0.25))]
        assert window.d_at_gate == max_decoherence(dephasing_exponent(1.0 / E_J, spec))

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(1.0, 6.0), temp_mk=st.floats(1.0, 300.0), omega_c=st.floats(50.0, 1e4),
           log_eta=st.floats(-9.0, -4.0), threshold=st.floats(1e-6, 1e-2))
    def test_eta_budget_does_not_depend_on_eta(self, s, temp_mk, omega_c, log_eta, threshold):
        # the budget is read off the eta-free total, so eta = 0, whose B2(tau_g)
        # is 0 and whose budget used to be None, and a subnormal eta get it too
        spec = BathSpec(eta=10.0**log_eta, omega_c=omega_c, beta=temperature_to_beta(temp_mk), s=s)
        budget = eta_max_checked(threshold, spec, E_J)
        t_max = on_the_rise(10.0, spec)
        for eta in (0.0, 5e-324):
            window = idle_window(threshold, spec._replace(eta=eta), E_J, t_max)
            assert window.eta_max == budget
            assert window.d_at_gate == max_decoherence(dephasing_exponent(1.0 / E_J,
                                                                          spec._replace(eta=eta)))

    def test_eta_budget_where_b2_at_the_gate_underflows(self):
        # 4 eta total underflows to 0 at this eta, though the total is 3.8e-316
        # and the budget a double; it used to be None
        spec = BathSpec(eta=2.3861844862539033e-12, omega_c=5.469694028818243e-79,
                        beta=temperature_to_beta(6.555688239812569e-98), s=3.0)
        threshold, e_j = 1.2387306120243032e-08, 26.507446227612625
        assert dephasing_exponent(1.0 / e_j, spec) == 0.0
        eta = idle_window(threshold, spec, e_j, 10.0).eta_max
        assert eta == 1.620724777000946e+307
        d = lambda e: max_decoherence(dephasing_exponent(1.0 / e_j, spec._replace(eta=e)))  # noqa: E731
        assert d(eta) >= threshold > d(math.nextafter(eta, 0.0))

    def test_eta_budget_is_null_where_the_eta_free_total_is_0(self):
        # G_0(omega_c tau_g) underflows to 0 at T = 0, so B2(tau_g) is 0 at every
        # eta; past eta = 4.5e307, 4 eta overflows and inf * 0 is nan, which a
        # search that does not stop at a zero total hands to max_decoherence
        spec = BathSpec(eta=1e-6, omega_c=5e-324, beta=math.inf)
        assert dephasing_exponent(1.0 / E_J, spec._replace(eta=0.25)) == 0.0
        assert idle_window(1e-4, spec, E_J, 10.0).eta_max is None

    def test_eta_budget_is_null_where_the_first_double_eta_is_subnormal(self):
        # the eta-free total is 2.71e304 at 1e300 mK, so D(tau_g) first reaches
        # the threshold at an eta near 1.85e-309, below the smallest normal double
        spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(1e300))
        total = dephasing_exponent(1.0 / 1e-5, spec._replace(eta=0.25))
        assert 0.0 < -math.log1p(-2e-4) / (4.0 * total) < sys.float_info.min
        assert idle_window(1e-4, spec, 1e-5, 10.0).eta_max is None

    @pytest.mark.parametrize("eta", [1e-309, 1e-311, 5e-324])
    def test_eta_budget_of_a_subnormal_eta_takes_few_probes(self, monkeypatch, eta):
        # eta L and B2(tau_g) are subnormal, and a guess formed from them was
        # 6,089,072 ulps off at eta = 1e-311, which a nextafter walk took
        # about 100 s to cross; the budget does not depend on eta
        import decoq.evolution

        spec = BathSpec(eta=eta, omega_c=200.0, beta=temperature_to_beta(30.0))
        probes = []

        def counting(t, spec):
            probes.append(t)
            return dephasing_exponent(t, spec)

        monkeypatch.setattr(decoq.evolution, "dephasing_exponent", counting)
        budget = idle_window(1e-4, spec, E_J, 10.0).eta_max
        assert len(probes) <= 70
        tau_g = 1.0 / E_J
        d = lambda e: max_decoherence(dephasing_exponent(tau_g, spec._replace(eta=e)))  # noqa: E731
        assert d(budget) >= 1e-4 > d(math.nextafter(budget, 0.0))
        assert budget == 3.604201689225632e-05

    @pytest.mark.parametrize("threshold,budget", [(0.49999999, 3.1943608416617906),
                                                  (math.nextafter(0.5, 0.0), 6.546618282990856)])
    def test_eta_budget_near_one_half(self, threshold, budget):
        # D is flat over many ulps of eta here, and a nextafter walk took
        # 112,622 B2 calls at 0.4999999 and did not end at 0.49999999
        spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
        assert eta_max_checked(threshold, spec, E_J) == budget

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(1.0, 6.0), temp_mk=st.floats(1.0, 300.0), omega_c=st.floats(50.0, 1e4),
           log_eta=st.floats(-9.0, -4.0),
           threshold=st.floats(0.49, math.nextafter(0.5, 0.0)))
    def test_eta_budget_near_one_half_takes_one_b2_call(self, s, temp_mk, omega_c, log_eta,
                                                         threshold):
        # the one B2 call at tau_g is the eta-free total that d_at_gate and the
        # budget share; every other call is at the configured bath
        import decoq.evolution

        spec = BathSpec(eta=10.0**log_eta, omega_c=omega_c, beta=temperature_to_beta(temp_mk), s=s)
        with mock.patch.object(decoq.evolution, "dephasing_exponent",
                               wraps=dephasing_exponent) as kernel:
            eta_max_checked(threshold, spec, E_J)
        budget = [call.args for call in kernel.call_args_list if call.args[1] != spec]
        assert budget == [(1.0 / E_J, spec._replace(eta=0.25))]

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(1.0, 6.0), temp_mk=st.floats(1.0, 300.0), omega_c=st.floats(50.0, 1e4),
           log_eta=st.floats(-9.0, -4.0), threshold=st.floats(1e-6, 1e-2))
    def test_eta_budget_is_the_first_double_at_the_threshold(self, s, temp_mk, omega_c,
                                                               log_eta, threshold):
        spec = BathSpec(eta=10.0**log_eta, omega_c=omega_c, beta=temperature_to_beta(temp_mk), s=s)
        eta_max_checked(threshold, spec, E_J)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(1.0, 6.0),
        temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_eta=st.floats(-9.0, -5.0),
        e_j=st.floats(5.0, 500.0),
        log_threshold=st.floats(-6.0, -2.0),
        log_t_max=st.floats(-3.0, 1.0),
    )
    def test_gate_level_and_budget_match_mpmath(self, s, temp_mk, log_omega_c, log_eta, e_j,
                                                log_threshold, log_t_max):
        # d_at_gate of every tld report and sweep row; for s > 2 the window
        # ends by t_rise, past which a crossing may be refused
        beta = math.inf if temp_mk == 0.0 else temperature_to_beta(temp_mk)
        spec = BathSpec(eta=10.0**log_eta, omega_c=10.0**log_omega_c, beta=beta, s=s)
        threshold, t_max = 10.0**log_threshold, on_the_rise(10.0**log_t_max, spec)
        window = idle_window(threshold, spec, e_j, t_max)
        assert window.d_at_gate == pytest.approx(mpmath_d(1.0 / e_j, spec), rel=1e-12, abs=0.0)
        # eta_max: B2 is linear in eta, so D(tau_g) = threshold at eta L / B2(tau_g)
        b2_gate = mpmath_b2(1.0 / e_j, spec)
        eta_max = spec.eta * -math.log1p(-2.0 * threshold) / b2_gate
        assert window.eta_max == pytest.approx(eta_max, rel=1e-12, abs=0.0)
        if window.tau_ld is None:
            assert window.d_at_t_max == pytest.approx(mpmath_d(t_max, spec), rel=1e-12, abs=0.0)


def window_or_none(threshold, spec, t_max):
    try:
        return low_decoherence_time(threshold, spec, t_max)
    except NoCrossingError:
        return None


def window_outcome(threshold, spec, t_max):
    """The window, None for a proved no crossing, or "refused" where neither is proved."""
    try:
        return window_or_none(threshold, spec, t_max)
    except ValueError as exc:
        assert "is not proved" in str(exc)
        return "refused"


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
    # a first crossing past t_rise, which the bound leaves unproved
    @example(lam=3.0, **BATHS["hump"])
    def test_scaling_covariance(self, s, temp_mk, omega_c, eta, threshold, t_max, lam):
        # omega_c -> lam omega_c, T -> lam T and eta -> lam^(1-s) eta turn
        # B2(t) into B2(lam t) and leave the bound past t_rise as it is, so
        # the window shrinks by lam, and a no crossing or refusal stays one
        spec = BathSpec(eta, omega_c, temperature_to_beta(temp_mk), s)
        scaled = BathSpec(
            lam ** (1.0 - s) * eta, lam * omega_c, temperature_to_beta(lam * temp_mk), s
        )
        # a D(t_max), or for s > 2 a D(t_rise) or D(bound), within round-off
        # of the threshold leaves the outcome to rounding
        b2_levels = [dephasing_exponent(t_max, spec)]
        if s > 2.0:
            b2_levels += [dephasing_exponent(math.tan(math.pi / s) / omega_c, spec),
                          _b2_peak_bound(spec)]
        for b2 in b2_levels:
            assume(abs(max_decoherence(b2) / threshold - 1.0) > 1e-9)
        tau = window_outcome(threshold, spec, t_max)
        tau_scaled = window_outcome(threshold, scaled, t_max / lam)
        assert type(tau) is type(tau_scaled)
        if isinstance(tau, float):
            assert lam * tau_scaled == pytest.approx(tau, rel=1e-12, abs=0.0)
        else:
            assert tau == tau_scaled

    @settings(deadline=None)
    @given(axis=st.sampled_from(["temp_mk", "eta", "omega_c"]), factor=st.floats(1.01, 10.0),
           **dict(PIPELINE, s=st.floats(1.0, 6.0)))
    def test_window_does_not_grow_with_temperature_or_coupling(
        self, s, temp_mk, omega_c, eta, threshold, t_max, axis, factor
    ):
        # the rule every sweep checks: a hotter, more strongly coupled or
        # wider band bath dephases faster, so tau_ld may not rise by more
        # than 1e-9.  A proved tau_ld lies in [0, t_rise], where the grown
        # B2 is at least the base one, so the grown bath crosses there too;
        # only along omega_c does t_rise shrink, and past the grown t_rise
        # the crossing may be left unproved
        base = {"temp_mk": temp_mk, "eta": eta, "omega_c": omega_c}
        grown = dict(base, **{axis: factor * base[axis]})

        def spec_of(p):
            return BathSpec(p["eta"], p["omega_c"], temperature_to_beta(p["temp_mk"]), s)

        tau = window_outcome(threshold, spec_of(base), t_max)
        if not isinstance(tau, float):
            return
        tau_grown = window_outcome(threshold, spec_of(grown), t_max)
        if tau_grown == "refused":
            assert axis == "omega_c" and s > 2.0
            assert tau > math.tan(math.pi / s) / grown["omega_c"]
        else:
            assert tau_grown is not None and tau_grown <= tau * (1.0 + 1e-9)
