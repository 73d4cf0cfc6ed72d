"""Qubit density matrices and the numpy maps on them.

Density matrices live in the eigenbasis of the degeneracy-point qubit
Hamiltonian H_s = -(E_J/2) sigma_x, whose eigenstates in the charge basis are

    phi_0 = (|0> - |1>)/sqrt(2)   energy +E_J/2
    phi_1 = (|0> + |1>)/sqrt(2)   energy -E_J/2

In that basis the exact reduced map for a dephasing (sigma_z) coupling is

    rho_11(t) = 1/2 rho_00 (1 - u) + 1/2 rho_11 (1 + u)
    rho_10(t) = 1/2 rho_01 (1 - u) + 1/2 rho_10 e^{i t E_J} (1 + u)

with u = exp(-B2(t)); every map takes any B2 >= 0, and B2 = inf (u = 0) is
full dephasing.  For a real initial coherence the familiar compact form
1/2 rho_10 (1 - u + e^{i t E_J} + e^{i t E_J} u) is recovered; the general
expression above is the one that agrees with exact diagonalization for
complex coherences.

QubitState, the one validated record, and the maps here are what verify,
the oracle and the Python API use; curve, tld and sweep never load this
module.  verify's references (the influence sum, the Bloch scan, random
states and the deviation sigma = rho - rho_ideal, a read-only array) are
not `decoq` public names.  A QubitState keeps its matrix as a read-only
numpy array, but the checks and maps work on the four entries as Python
numbers and in closed form: the smallest eigenvalue of a 2x2 hermitian
matrix is (rho_00 + rho_11)/2 - hypot((rho_00 - rho_11)/2, |rho_10|).
"""

import cmath
import math

import numpy as np

from .bath import _record, _validate_dephasing
from .evolution import COMPUTATIONAL, EIGENBASIS, _check_time_and_e_j, max_decoherence

_BASES = (EIGENBASIS, COMPUTATIONAL)

# the basis change S: its columns are phi_0 and phi_1 in the charge basis
_S = np.array(((1.0, 1.0), (-1.0, 1.0))) / math.sqrt(2.0)
_S.setflags(write=False)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10

# theta and phi points of the Bloch-sphere grid search
BLOCH_GRID = 200


class QubitState(_record("QubitState", "rho basis")):
    """Validated 2x2 density matrix with an explicit basis tag.

    The matrix must be finite, hermitian, of trace 1, positive and in a
    known basis.  rho is its exact part as a read-only complex array: the
    hermitian part with the trace set to 1, so a state passes the same
    checks after a basis change; an exactly hermitian matrix of trace 1 is
    kept as given.
    """

    __slots__ = ()

    def __new__(cls, rho, basis: str = EIGENBASIS):
        m = np.array(rho, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        (r00, r01), (r10, r11) = m.tolist()
        # every comparison with nan is false, so the checks below would pass it
        if not all(map(cmath.isfinite, (r00, r01, r10, r11))):
            raise ValueError("density matrix has a non-finite entry")
        if basis not in _BASES:
            raise ValueError(f"basis must be one of {_BASES}, got {basis!r}")
        # the largest entry of |m - m^dagger|; hypot is inf where complex abs would overflow
        skew = max(2.0 * abs(r00.imag), math.hypot(r01.real - r10.real, r01.imag + r10.imag),
                   2.0 * abs(r11.imag))
        if skew > HERMITICITY_TOL:
            raise ValueError("density matrix is not hermitian within tolerance")
        trace = r00 + r11
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace}")
        # the smallest eigenvalue of the lower triangle, the part eigvalsh reads
        if (0.5 * (r00.real + r11.real)
                - math.hypot(0.5 * (r00.real - r11.real), r10.real, r10.imag) < POSITIVITY_TOL):
            raise ValueError("density matrix has a significantly negative eigenvalue")
        if skew or trace != 1.0:
            # the trace error shared out, then the smaller diagonal entry set to 1 minus
            # the larger, which sums back to 1 exactly
            half = 0.5 * (trace.real - 1.0)
            d0, d1 = r00.real - half, r11.real - half
            d0, d1 = (d0, 1.0 - d0) if d0 >= d1 else (1.0 - d1, d1)
            r10 += 0.5 * (r01.conjugate() - r10)
            m = np.array(((d0, r10.conjugate()), (r10, d1)))
        m.setflags(write=False)
        return super().__new__(cls, m, basis)


def basis_change(state: QubitState) -> QubitState:
    """Toggle a state between the charge basis and the eigenbasis.

    Applying it twice is the identity.  Eigenbasis -> charge conjugates by
    S and charge -> eigenbasis by S^T.
    """
    if state.basis == EIGENBASIS:
        return QubitState(_S @ state.rho @ _S.T, COMPUTATIONAL)
    return QubitState(_S.T @ state.rho @ _S, EIGENBASIS)


def pure_state(theta: float, phi: float = 0.0) -> QubitState:
    """Pure state cos(theta/2)|phi_0> + e^{i phi} sin(theta/2)|phi_1>."""
    a0 = math.cos(0.5 * theta)
    a1 = math.sin(0.5 * theta) * complex(math.cos(phi), math.sin(phi))
    psi = np.array([a0, a1], dtype=complex)
    return QubitState(np.outer(psi, psi.conj()), EIGENBASIS)


def random_density_matrix(rng: "np.random.Generator", basis: str = EIGENBASIS) -> QubitState:
    """Random full-rank 2x2 density matrix from a Ginibre draw."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return QubitState(rho / (rho[0, 0] + rho[1, 1]).real, basis)


def _check_evolution(state: QubitState, dephasing: float, t: float, e_j: float):
    if state.basis != EIGENBASIS:
        raise ValueError("evolution operates on eigenbasis states; convert first")
    _validate_dephasing(dephasing)
    _check_time_and_e_j(t, e_j)


def evolve_ideal(state: QubitState, t: float, e_j: float) -> QubitState:
    """Bath-free evolution: populations fixed, rho_10 -> rho_10 e^{i t E_J}."""
    return evolve_real(state, 0.0, t, e_j)


def evolve_real(state: QubitState, dephasing: float, t: float, e_j: float) -> QubitState:
    """Exact reduced map with the bath traced out (see module docstring)."""
    _check_evolution(state, dephasing, t, e_j)
    (r00, r01), (r10, r11) = state.rho.tolist()
    u = math.exp(-dephasing)
    phase = complex(math.cos(t * e_j), math.sin(t * e_j))
    r11 = 0.5 * r00 * (1.0 - u) + 0.5 * r11 * (1.0 + u)
    r10 = 0.5 * r01 * (1.0 - u) + 0.5 * r10 * phase * (1.0 + u)
    return QubitState([[1.0 - r11, r10.conjugate()], [r10, r11]], EIGENBASIS)


def evolve_real_influence_sum(
    state: QubitState, dephasing: float, t: float, e_j: float
) -> QubitState:
    """Reduced map evaluated as the influence-functional sum, by matrix products.

    The split propagator sandwiches the dephasing factor between two free
    half-steps h = exp(-i t lambda/2), diagonal in the eigenbasis.  The
    influence factor F = exp(-B2 (chi - chi')^2/4) multiplies each
    charge-basis entry (chi, chi') of the half-evolved state; for chi in
    {+1, -1} it is F = [[1, u], [u, 1]] with u = exp(-B2).  With the
    overlaps O = S^T, O_{j chi} = <phi_j | chi>, the sum over every
    eigenbasis/charge-basis index pair contracts to

        M = O^T (h rho h^*) O,    out = h O (F o M) O^T h^*

    (o the entrywise product), which must reproduce evolve_real.  The
    shift phase exp(-i C (chi^2 - chi'^2)) is 1 for chi in {+1, -1}, so C
    does not enter.
    """
    _check_evolution(state, dephasing, t, e_j)
    u = math.exp(-dephasing)
    f = np.array([[1.0, u], [u, 1.0]])
    h = np.exp(-0.5j * t * np.array([[0.5 * e_j], [-0.5 * e_j]]))  # a column
    m = _S @ (h * state.rho * h.conj().T) @ _S.T
    out = h * (_S.T @ (f * m) @ _S) * h.conj().T
    return QubitState(out, EIGENBASIS)


def deviation(state: QubitState, ideal: QubitState) -> np.ndarray:
    """rho - rho_ideal of two states in one basis, a read-only array traceless to an ulp."""
    if state.basis != ideal.basis:
        raise ValueError("deviation requires both states in the same basis")
    sigma = state.rho - ideal.rho
    sigma.setflags(write=False)
    return sigma


def deviation_norm(sigma: np.ndarray) -> float:
    """Largest-magnitude eigenvalue of sigma: sqrt(sigma_11^2 + |sigma_10|^2)."""
    return float(math.hypot(sigma[1, 1].real, abs(sigma[1, 0])))


def deviation_norm_closed_form(
    state: QubitState, dephasing: float, t: float, e_j: float
) -> float:
    """Deviation norm without running the evolution pipeline.

    ||sigma||(t) = 1/2 (1 - e^{-B2}) sqrt((rho_00 - rho_11)^2
                                          + |rho_01 - rho_10 e^{i t E_J}|^2)

    For a real initial coherence the second term reduces to
    4 |rho_10|^2 sin^2(E_J t / 2).
    """
    _check_evolution(state, dephasing, t, e_j)
    (r00, r01), (r10, r11) = state.rho.tolist()
    pop = (r00 - r11).real
    coh = abs(r01 - r10 * cmath.exp(1j * t * e_j))
    return max_decoherence(dephasing) * math.sqrt(pop * pop + coh * coh)


def bloch_supremum_scan(
    dephasing: float, t: float, e_j: float
) -> tuple[float, float, float]:
    """Grid-search the closed-form deviation norm over the pure-state sphere.

    Returns (max value, theta, phi) of the maximizing grid point.  Serves as
    a brute-force check that the supremum equals max_decoherence and is
    attained at theta = 0.  B2, t and E_J are checked as evolve_real
    checks them.
    """
    _validate_dephasing(dephasing)
    _check_time_and_e_j(t, e_j)
    theta = np.linspace(0.0, math.pi, BLOCH_GRID)
    phi = np.linspace(0.0, 2.0 * math.pi, BLOCH_GRID, endpoint=False)
    half_decay = 0.5 * -np.expm1(-dephasing)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    lift = np.sin(phi + 0.5 * t * e_j) ** 2
    # every rounded step of the norm is monotone in lift, so the grid's
    # maximum lies in the column of lift's first maximum; the grid's
    # row-major first maximum is in the first row that reaches it, at the
    # first phi of that row that does (theta = 0 ties at every phi)
    i = int(np.argmax(half_decay * np.sqrt(cos2 + sin2 * lift[np.argmax(lift)])))
    row = half_decay * np.sqrt(cos2[i] + sin2[i] * lift)
    j = int(np.argmax(row))
    return float(row[j]), float(theta[i]), float(phi[j])
