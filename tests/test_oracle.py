import math
import warnings

import numpy as np
import pytest

from decoq.bath import dephasing_exponent_modes
from decoq.evolution import (
    COMPUTATIONAL,
    QubitState,
    evolve_ideal,
    pure_state,
    random_density_matrix,
)
from decoq.model import basis_change
from decoq.oracle import (
    BathTruncationWarning,
    CompositeSystem,
    DimensionCapError,
    TruncatedBathMode,
    discrete_bath_from_modes,
    error_scaling,
    evolve_exact,
    evolve_split,
    split_vs_closed_form,
    thermal_bath_state,
)
from decoq.units import temperature_to_beta

BETA_30MK = temperature_to_beta(30.0)


def one_mode_system(e_j=51.8, omega=8.0, g=0.5, n_fock=14):
    return CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(omega, g, n_fock),))


class TestConstruction:
    def test_dimension_cap(self):
        modes = tuple(TruncatedBathMode(8.0 + k, 0.1, 16) for k in range(3))
        with pytest.raises(DimensionCapError):
            CompositeSystem(e_j=51.8, modes=modes)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            TruncatedBathMode(-1.0, 0.1, 8)
        with pytest.raises(ValueError):
            TruncatedBathMode(8.0, 0.1, 1)

    def test_needs_modes(self):
        with pytest.raises(ValueError):
            CompositeSystem(e_j=51.8, modes=())


class TestThermalBathState:
    def test_normalized_and_diagonal(self):
        modes = (TruncatedBathMode(8.0, 0.5, 12), TruncatedBathMode(16.0, 0.2, 6))
        rho = thermal_bath_state(modes, BETA_30MK)
        assert rho.shape == (72, 72)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_zero_temperature_is_ground_state(self):
        rho = thermal_bath_state((TruncatedBathMode(8.0, 0.5, 5),), math.inf)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0.0)

    def test_occupation_ratio_is_boltzmann(self):
        rho = thermal_bath_state((TruncatedBathMode(8.0, 0.5, 12),), BETA_30MK)
        p = np.diag(rho)
        assert p[1] / p[0] == pytest.approx(math.exp(-BETA_30MK * 8.0), rel=1e-12)

    def test_warns_when_truncation_is_too_tight(self):
        with pytest.warns(BathTruncationWarning):
            thermal_bath_state((TruncatedBathMode(1.0, 0.5, 3),), BETA_30MK)


class TestDecoupledLimit:
    def test_zero_coupling_reduces_to_ideal(self, rng):
        system = one_mode_system(g=0.0, n_fock=12)
        for _ in range(5):
            st = random_density_matrix(rng)
            exact = evolve_exact(system, st, BETA_30MK, 0.7)
            ideal = evolve_ideal(st, 0.7, system.e_j)
            np.testing.assert_allclose(exact.rho, ideal.rho, atol=1e-12)


class TestPureDephasing:
    def test_coherence_decays_by_mode_exponent(self):
        # with no qubit Hamiltonian the bath only scrubs charge coherence
        system = one_mode_system(e_j=0.0, n_fock=16)
        bath = discrete_bath_from_modes(system.modes)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        for t in (0.01, 0.05, 0.1, 0.5):
            out = evolve_exact(system, rho0, BETA_30MK, t)
            b2 = dephasing_exponent_modes(t, bath, BETA_30MK)
            assert out.rho[0, 1] == pytest.approx(0.5 * math.exp(-b2), abs=1e-10)
            assert out.rho[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_truncation_error_falls_with_fock_levels(self):
        # soft mode at strong coupling: the truncated prediction homes in
        # on the closed form as levels are added
        beta = temperature_to_beta(300.0)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        t = 0.8
        diffs = []
        for n_fock in (4, 8, 16):
            system = CompositeSystem(e_j=0.0, modes=(TruncatedBathMode(2.0, 0.6, n_fock),))
            bath = discrete_bath_from_modes(system.modes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BathTruncationWarning)
                out = evolve_exact(system, rho0, beta, t)
            b2 = dephasing_exponent_modes(t, bath, beta)
            diffs.append(abs(out.rho[0, 1] - 0.5 * math.exp(-b2)))
        assert diffs[0] > diffs[1] > diffs[2]


class TestSplitVsClosedForm:
    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0])
    def test_one_mode_machine_precision(self, rng, t):
        system = one_mode_system()
        st = random_density_matrix(rng)
        cmp = split_vs_closed_form(system, st, BETA_30MK, t)
        assert cmp.max_abs_diff < 1e-12
        assert cmp.b_squared > 0.0

    def test_two_modes_many_states(self, rng):
        system = CompositeSystem(
            e_j=51.8,
            modes=(TruncatedBathMode(16.0, 0.4, 6), TruncatedBathMode(23.0, 0.3, 6)),
        )
        worst = 0.0
        for _ in range(20):
            st = random_density_matrix(rng)
            t = float(rng.uniform(0.02, 1.0))
            worst = max(worst, split_vs_closed_form(system, st, BETA_30MK, t).max_abs_diff)
        assert worst < 1e-10

    def test_duplicate_frequencies_merge(self):
        modes = (TruncatedBathMode(8.0, 0.3, 4), TruncatedBathMode(8.0, 0.4, 4))
        bath = discrete_bath_from_modes(modes)
        assert len(bath) == 1
        assert float(bath.g_sq[0]) == pytest.approx(0.25, rel=1e-12)


class TestBasisHandling:
    def test_exact_evolution_consistent_between_bases(self, rng):
        system = one_mode_system()
        st_eigen = random_density_matrix(rng)
        out_eigen = evolve_exact(system, st_eigen, BETA_30MK, 0.4)
        out_comp = evolve_exact(system, basis_change(st_eigen), BETA_30MK, 0.4)
        assert out_eigen.basis != out_comp.basis
        np.testing.assert_allclose(
            basis_change(out_comp).rho, out_eigen.rho, atol=1e-12
        )

    def test_split_returns_input_basis(self, rng):
        system = one_mode_system()
        st = random_density_matrix(rng, basis=COMPUTATIONAL)
        assert evolve_split(system, st, BETA_30MK, 0.2).basis == COMPUTATIONAL


class TestErrorScaling:
    SYSTEM = CompositeSystem(
        e_j=51.8,
        modes=(TruncatedBathMode(16.0, 0.8, 6), TruncatedBathMode(23.0, 0.6, 6)),
    )

    def test_third_order_slope(self):
        result = error_scaling(
            self.SYSTEM, pure_state(math.pi / 3.0, 0.3), BETA_30MK,
            np.geomspace(4e-4, 3e-3, 6),
        )
        assert 2.7 <= result.slope <= 3.3
        assert np.all(np.diff(result.errors) > 0.0)

    def test_commuting_case_rejected(self):
        system = one_mode_system(e_j=0.0, n_fock=6)
        with pytest.raises(RuntimeError, match="commute"):
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    def test_zero_coupling_rejected(self):
        system = one_mode_system(g=0.0, n_fock=4)
        with pytest.raises(RuntimeError, match="commute"):
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    def test_floor_points_excluded(self):
        times = np.geomspace(1e-7, 1e-6, 4)
        with pytest.warns(UserWarning, match="floor"):
            with pytest.raises(RuntimeError, match="fewer than three"):
                error_scaling(self.SYSTEM, pure_state(math.pi / 3.0, 0.3), BETA_30MK, times)

    def test_grid_validation(self):
        st = pure_state(0.5)
        with pytest.raises(ValueError):
            error_scaling(self.SYSTEM, st, BETA_30MK, [1e-3, 2e-3])
        with pytest.raises(ValueError):
            error_scaling(self.SYSTEM, st, BETA_30MK, [1e-3, 2e-3, 2e-3, 3e-3])
