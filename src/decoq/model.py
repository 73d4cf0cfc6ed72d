"""Charge-qubit operators at the degeneracy point.

Near n_g = 1/2 the two lowest charge states of the island span the qubit,
whose Hamiltonian is H_s = -(E_J/2) sigma_x in the charge basis.  This
module holds the Pauli matrices, the idle-gate unitary and the change
between the charge basis and the eigenbasis of H_s.
"""

from __future__ import annotations

import math

from ._np import np
from .evolution import COMPUTATIONAL, EIGENBASIS, QubitState

# rows of the real Pauli matrices; np.array(pauli_x) is the matrix
pauli_x = ((0.0, 1.0), (1.0, 0.0))
pauli_z = ((1.0, 0.0), (0.0, -1.0))

# columns, over sqrt2, are the degeneracy-point eigenstates
# phi_0 = (|0>-|1>)/sqrt2, phi_1 = (|0>+|1>)/sqrt2 in the charge basis
_EIG_COLUMNS = ((1.0, 1.0), (-1.0, 1.0))


def gate_unitary(e_j: float, tau: float) -> np.ndarray:
    """Idle-gate unitary exp(i E_J tau sigma_x / 2) in the charge basis."""
    if not math.isfinite(e_j) or e_j < 0.0:
        raise ValueError(f"Josephson energy must be >= 0, got {e_j}")
    if not math.isfinite(tau):
        raise ValueError(f"gate duration must be finite, got {tau}")
    half = 0.5 * e_j * tau
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def basis_change(state: QubitState) -> QubitState:
    """Toggle a state between the charge basis and the eigenbasis.

    Applying it twice is the identity.  With S the matrix whose columns are
    the degeneracy-point eigenstates, eigenbasis -> charge conjugates by S
    and charge -> eigenbasis by S^T.
    """
    s = np.array(_EIG_COLUMNS) / math.sqrt(2.0)
    if state.basis == EIGENBASIS:
        return QubitState(s @ state.rho @ s.T, COMPUTATIONAL)
    return QubitState(s.T @ state.rho @ s, EIGENBASIS)
