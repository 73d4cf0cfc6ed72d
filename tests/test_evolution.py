import math
import warnings

import numpy as np
import pytest

from decoq.bath import BathSpec
from decoq.evolution import (
    COMPUTATIONAL,
    EIGENBASIS,
    DecoherenceCurve,
    DeviationOperator,
    NoCrossingError,
    QubitState,
    _find_crossing,
    bloch_supremum_scan,
    deviation,
    deviation_norm,
    deviation_norm_closed_form,
    evolve_ideal,
    evolve_real,
    evolve_real_influence_sum,
    low_decoherence_time,
    max_decoherence,
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

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QubitState(np.eye(3, dtype=complex) / 3.0)


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
        b2 = np.array([0.01, 0.1, 1.0])
        norms = deviation_norm_closed_form(pure_state(0.0), b2, 0.3, E_J)
        np.testing.assert_allclose(norms, max_decoherence(b2), atol=1e-15)


class TestMaxDecoherence:
    def test_values(self):
        assert max_decoherence(0.0) == 0.0
        assert max_decoherence(1e-4) == pytest.approx(0.5e-4, rel=1e-3, abs=0.0)
        assert float(max_decoherence(1e3)) == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_monotone_and_array(self):
        b2 = np.linspace(0.0, 5.0, 50)
        d = max_decoherence(b2)
        assert d.shape == b2.shape
        assert np.all(np.diff(d) > 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            max_decoherence(-0.5)


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


class TestFindCrossing:
    def test_monotone_analytic(self):
        tau = _find_crossing(lambda t: 0.5 * (1.0 - math.exp(-t)), 0.25, 10.0, 1e-9)
        assert tau == pytest.approx(math.log(2.0), rel=1e-6)

    def test_seed_already_above_threshold(self):
        tau = _find_crossing(lambda t: 0.4, 0.1, 10.0, 1e-6)
        assert tau < 1e-4

    def test_no_crossing_error_carries_level(self):
        with pytest.raises(NoCrossingError) as err:
            _find_crossing(lambda t: 0.01 * t, 0.3, 10.0, 1e-6)
        assert err.value.d_at_t_max == pytest.approx(0.1, rel=1e-12, abs=0.0)

    def test_non_monotone_fallback_finds_first_crossing(self):
        # bump at t = 1 plus a slow ramp: the doubling probes see the
        # level drop past the bump and must fall back to the dense scan
        def d(t):
            return 0.3 * math.exp(-((t - 1.0) ** 2) / 0.01) + 0.01 * t

        with pytest.warns(RuntimeWarning, match="not monotone"):
            tau = _find_crossing(d, 0.09, 10.0, 1e-6)
        assert 0.85 < tau < 0.92
        assert d(tau) == pytest.approx(0.09, abs=1e-4)


class TestLowDecoherenceTime:
    SPEC = BathSpec(eta=1e-4, omega_c=200.0, beta=temperature_to_beta(30.0))

    def test_crossing_level_is_threshold(self):
        from decoq.bath import dephasing_exponent

        tau = low_decoherence_time(1e-4, self.SPEC, 5.0)
        d_tau = float(max_decoherence(dephasing_exponent(tau, self.SPEC)))
        assert d_tau == pytest.approx(1e-4, rel=1e-2, abs=0.0)
        assert 0.0 < tau < 5.0

    def test_stronger_coupling_shortens_window(self):
        weak = low_decoherence_time(1e-4, self.SPEC, 5.0)
        strong_spec = BathSpec(eta=1e-3, omega_c=200.0, beta=self.SPEC.beta)
        strong = low_decoherence_time(1e-4, strong_spec, 5.0)
        assert strong < weak

    def test_no_crossing(self):
        tame = BathSpec(eta=1e-12, omega_c=200.0, beta=self.SPEC.beta)
        with pytest.raises(NoCrossingError):
            low_decoherence_time(1e-4, tame, 1.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            low_decoherence_time(0.6, self.SPEC, 1.0)
        with pytest.raises(ValueError):
            low_decoherence_time(0.0, self.SPEC, 1.0)


class TestRecords:
    def test_decoherence_curve_validation(self):
        t = np.array([0.0, 0.1, 0.2])
        ok = DecoherenceCurve(
            times=t,
            dephasing=np.array([0.0, 0.1, 0.2]),
            shift=np.zeros(3),
            d=np.array([0.0, 0.04, 0.09]),
            norms={"point": np.zeros(3)},
        )
        assert not ok.times.flags.writeable
        with pytest.raises(ValueError):
            DecoherenceCurve(
                times=np.array([0.0, 0.2, 0.1]),
                dephasing=np.zeros(3),
                shift=np.zeros(3),
                d=np.zeros(3),
                norms={},
            )

    def test_deviation_operator_validation(self):
        with pytest.raises(ValueError):
            DeviationOperator(np.diag([0.2, 0.1]).astype(complex), EIGENBASIS)
