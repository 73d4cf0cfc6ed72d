"""Qubit density matrices and the numpy maps on them.

Density matrices live in the eigenbasis of the degeneracy-point qubit
Hamiltonian H_s = -(E_J/2) sigma_x, whose eigenstates in the charge basis are

    phi_0 = (|0> - |1>)/sqrt(2)   energy +E_J/2
    phi_1 = (|0> + |1>)/sqrt(2)   energy -E_J/2

In that basis the exact reduced map for a dephasing (sigma_z) coupling is

    rho_11(t) = 1/2 rho_00 (1 - u) + 1/2 rho_11 (1 + u)
    rho_10(t) = 1/2 rho_01 (1 - u) + 1/2 rho_10 e^{i t E_J} (1 + u)

with u = exp(-B2(t)).  For a real initial coherence the familiar compact
form 1/2 rho_10 (1 - u + e^{i t E_J} + e^{i t E_J} u) is recovered; the
general expression above is the one that agrees with exact diagonalization
for complex coherences.

The records and maps here are what verify, the oracle and the Python API
use; curve, tld and sweep run on the float path of `evolution` and never
load this module.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

from ._np import np
from .bath import _record, influence_exponent
from .evolution import COMPUTATIONAL, EIGENBASIS, max_decoherence

_BASES = (EIGENBASIS, COMPUTATIONAL)

# columns, over sqrt2, are phi_0 and phi_1 in the charge basis
_EIG_COLUMNS = ((1.0, 1.0), (-1.0, 1.0))

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10

# theta and phi points of the Bloch-sphere grid search
BLOCH_GRID = 200


class QubitState(_record("QubitState", "rho basis")):
    """Validated 2x2 density matrix with an explicit basis tag."""

    __slots__ = ()

    def __new__(cls, rho, basis: str = EIGENBASIS):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        # every comparison with nan is false, so the checks below would pass it
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix has a non-finite entry")
        if basis not in _BASES:
            raise ValueError(f"basis must be one of {_BASES}, got {basis!r}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not hermitian within tolerance")
        if abs(np.trace(rho) - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.min(np.linalg.eigvalsh(rho)) < POSITIVITY_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
        return super().__new__(cls, rho, basis)


class DeviationOperator(_record("DeviationOperator", "sigma basis")):
    """Traceless hermitian difference between actual and ideal states."""

    __slots__ = ()

    def __new__(cls, sigma, basis: str = EIGENBASIS):
        sigma = np.array(sigma, dtype=complex)
        if sigma.shape != (2, 2):
            raise ValueError(f"deviation operator must be 2x2, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("deviation operator has a non-finite entry")
        if np.max(np.abs(sigma - sigma.conj().T)) > HERMITICITY_TOL:
            raise ValueError("deviation operator is not hermitian within tolerance")
        if abs(np.trace(sigma)) > TRACE_TOL:
            raise ValueError("deviation operator must be traceless")
        sigma.setflags(write=False)
        return super().__new__(cls, sigma, basis)


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


def pure_state(theta: float, phi: float = 0.0) -> QubitState:
    """Pure state cos(theta/2)|phi_0> + e^{i phi} sin(theta/2)|phi_1>."""
    a0 = math.cos(0.5 * theta)
    a1 = math.sin(0.5 * theta) * complex(math.cos(phi), math.sin(phi))
    psi = np.array([a0, a1], dtype=complex)
    return QubitState(np.outer(psi, psi.conj()), EIGENBASIS)


def random_density_matrix(rng: np.random.Generator, basis: str = EIGENBASIS) -> QubitState:
    """Random full-rank 2x2 density matrix from a Ginibre draw."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return QubitState(rho / np.trace(rho).real, basis)


def _require_eigenbasis(state: QubitState):
    if state.basis != EIGENBASIS:
        raise ValueError("evolution operates on eigenbasis states; convert first")


def _validate_evolution_args(dephasing: float, t: float, e_j: float):
    if not math.isfinite(dephasing) or dephasing < 0.0:
        raise ValueError(f"dephasing exponent must be finite and >= 0, got {dephasing}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if not math.isfinite(e_j) or e_j < 0.0:
        raise ValueError(f"E_J must be finite and >= 0, got {e_j}")


def evolve_ideal(state: QubitState, t: float, e_j: float) -> QubitState:
    """Bath-free evolution: populations fixed, rho_10 -> rho_10 e^{i t E_J}."""
    return evolve_real(state, 0.0, t, e_j)


def evolve_real(state: QubitState, dephasing: float, t: float, e_j: float) -> QubitState:
    """Exact reduced map with the bath traced out (see module docstring)."""
    _require_eigenbasis(state)
    _validate_evolution_args(dephasing, t, e_j)
    rho = state.rho
    u = math.exp(-dephasing)
    phase = complex(math.cos(t * e_j), math.sin(t * e_j))
    r11 = 0.5 * rho[0, 0] * (1.0 - u) + 0.5 * rho[1, 1] * (1.0 + u)
    r10 = 0.5 * rho[0, 1] * (1.0 - u) + 0.5 * rho[1, 0] * phase * (1.0 + u)
    out = np.array([[1.0 - r11, np.conj(r10)], [r10, r11]], dtype=complex)
    return QubitState(out, EIGENBASIS)


_CHI = (1, -1)


def evolve_real_influence_sum(
    state: QubitState, dephasing: float, shift: float, t: float, e_j: float
) -> QubitState:
    """Reduced map evaluated as the explicit eight-index influence-functional sum.

    The split propagator sandwiches the dephasing factor between two free
    half-steps; summing over every eigenbasis/charge-basis index pair with
    the influence factor exp(-B2 (chi - chi')^2/4 - i C (chi^2 - chi'^2))
    must reproduce evolve_real.  The half-steps are diagonal in the
    eigenbasis, so four of the eight indices equal others and 64 terms
    remain.  The C-dependent phase cancels identically for chi in {+1, -1}.
    """
    _require_eigenbasis(state)
    _validate_evolution_args(dephasing, t, e_j)
    rho = state.rho
    # overlap[j, xi] = <phi_j | xi> between eigenstates and sigma_z eigenstates
    overlap = np.array(_EIG_COLUMNS).T / math.sqrt(2.0)
    lam = (0.5 * e_j, -0.5 * e_j)
    F = [
        [np.exp(influence_exponent(_CHI[xi], _CHI[sg], dephasing, shift)) for sg in range(2)]
        for xi in range(2)
    ]
    out = np.zeros((2, 2), dtype=complex)
    # the deltas of the free factors set alpha = m, beta = p, mu = q, nu = n
    for m, n, xi, p, q, sg in product(range(2), repeat=6):
        # each free factor acts for t/2
        ph = cmath.exp(0.5j * t * (lam[q] + lam[n] - lam[m] - lam[p]))
        out[m, n] += (
            ph
            * overlap[m, xi]
            * overlap[p, xi]
            * rho[p, q]
            * overlap[q, sg]
            * overlap[n, sg]
            * F[xi][sg]
        )
    out = 0.5 * (out + out.conj().T)  # scrub float round-off, map is hermitian
    return QubitState(out, EIGENBASIS)


def deviation(state: QubitState, ideal: QubitState) -> DeviationOperator:
    """Elementwise difference sigma = rho - rho_ideal (same basis required)."""
    if state.basis != ideal.basis:
        raise ValueError("deviation requires both states in the same basis")
    return DeviationOperator(state.rho - ideal.rho, state.basis)


def deviation_norm(dev: DeviationOperator) -> float:
    """Largest-magnitude eigenvalue of sigma: sqrt(sigma_11^2 + |sigma_10|^2)."""
    s = dev.sigma
    return float(math.hypot(s[1, 1].real, abs(s[1, 0])))


def deviation_norm_closed_form(
    state: QubitState, dephasing: float, t: float, e_j: float
) -> float:
    """Deviation norm without running the evolution pipeline.

    ||sigma||(t) = 1/2 (1 - e^{-B2}) sqrt((rho_00 - rho_11)^2
                                          + |rho_01 - rho_10 e^{i t E_J}|^2)

    For a real initial coherence the second term reduces to
    4 |rho_10|^2 sin^2(E_J t / 2).
    """
    _require_eigenbasis(state)
    rho = state.rho
    pop = (rho[0, 0] - rho[1, 1]).real
    coh = abs(rho[0, 1] - rho[1, 0] * cmath.exp(1j * t * e_j))
    return max_decoherence(dephasing) * math.sqrt(pop * pop + coh * coh)


def bloch_supremum_scan(
    dephasing: float, t: float, e_j: float
) -> tuple[float, float, float]:
    """Grid-search the closed-form deviation norm over the pure-state sphere.

    Returns (max value, theta, phi) of the maximizing grid point.  Serves as
    a brute-force check that the supremum equals max_decoherence and is
    attained at theta = 0.
    """
    theta = np.linspace(0.0, math.pi, BLOCH_GRID)
    phi = np.linspace(0.0, 2.0 * math.pi, BLOCH_GRID, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    decay = -np.expm1(-dephasing)
    val = 0.5 * decay * np.sqrt(
        np.cos(th) ** 2 + np.sin(th) ** 2 * np.sin(ph + 0.5 * t * e_j) ** 2
    )
    k = int(np.argmax(val))
    i, j = divmod(k, BLOCH_GRID)
    return float(val[i, j]), float(theta[i]), float(phi[j])
