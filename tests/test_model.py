import math

import numpy as np
import pytest

from decoq.evolution import COMPUTATIONAL, EIGENBASIS
from decoq.states import evolve_ideal, pure_state, random_density_matrix
from decoq import basis_change, gate_unitary


class TestGateUnitary:
    def test_unitarity(self):
        u = gate_unitary(51.8, 0.37)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize(
        "e_j,tau", [(-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (51.8, math.inf)]
    )
    def test_rejects_bad_arguments(self, e_j, tau):
        with pytest.raises(ValueError):
            gate_unitary(e_j, tau)

    def test_full_period(self):
        u = gate_unitary(51.8, 2.0 * math.pi / 51.8)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_matches_eigenbasis_phase_evolution(self, rng):
        # conjugating the charge-basis propagator must reproduce the
        # eigenbasis map that multiplies the coherence by exp(i t E_J)
        from decoq.states import QubitState

        e_j, t = 51.8, 0.23
        state = random_density_matrix(rng)
        evolved = evolve_ideal(state, t, e_j)
        comp = basis_change(state)
        u = gate_unitary(e_j, t)
        back = basis_change(QubitState(u @ comp.rho @ u.conj().T, COMPUTATIONAL))
        np.testing.assert_allclose(back.rho, evolved.rho, atol=1e-13)


class TestBasisChange:
    def test_involutive(self, rng):
        state = random_density_matrix(rng)
        twice = basis_change(basis_change(state))
        assert twice.basis == state.basis
        np.testing.assert_allclose(twice.rho, state.rho, atol=1e-14)

    def test_first_eigenstate_maps_to_antisymmetric_charge_state(self):
        comp = basis_change(pure_state(0.0))
        assert comp.basis == COMPUTATIONAL
        expected = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(comp.rho, expected, atol=1e-14)

    def test_charge_state_has_half_coherence_in_eigenbasis(self):
        from decoq.states import QubitState

        charge0 = QubitState(np.diag([1.0, 0.0]).astype(complex), COMPUTATIONAL)
        eig = basis_change(charge0)
        assert eig.basis == EIGENBASIS
        np.testing.assert_allclose(eig.rho, 0.5 * np.ones((2, 2)), atol=1e-14)
