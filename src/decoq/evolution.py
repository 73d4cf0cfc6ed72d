"""Reduced qubit dynamics under pure dephasing, and the deviation-norm measure.

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
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from collections.abc import Callable
from itertools import product

from ._np import linspace, np
from .bath import BathSpec, _record, dephasing_exponent

EIGENBASIS = "eigenbasis"
COMPUTATIONAL = "computational"
_BASES = (EIGENBASIS, COMPUTATIONAL)

# columns, over sqrt2, are phi_0 and phi_1 in the charge basis
_EIG_COLUMNS = ((1.0, 1.0), (-1.0, 1.0))

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10

# first probe of the root find; doubling and halving bracket from here
T_SEED = 1e-4
# theta and phi points of the Bloch-sphere grid search
BLOCH_GRID = 200


class NoCrossingError(RuntimeError):
    """The decoherence level never reaches the threshold within [0, t_max]."""

    def __init__(self, message: str, d_at_t_max: float):
        super().__init__(message)
        self.d_at_t_max = d_at_t_max


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
    from .bath import influence_exponent

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


def pure_state_norm(theta: float, phi: float, dephasing: float, t: float, e_j: float) -> float:
    """deviation_norm_closed_form of pure_state(theta, phi), on floats alone.

    ||sigma||(t) = 1/2 (1 - e^{-B2}) sqrt(cos^2 theta + sin^2 theta sin^2(phi + t E_J/2))

    sin(phi + t E_J/2) is taken by its angle-sum formula, so the sum of
    the two angles is never rounded.
    """
    half = 0.5 * t * e_j
    s = math.sin(theta) * (math.sin(phi) * math.cos(half) + math.cos(phi) * math.sin(half))
    c = math.cos(theta)
    return max_decoherence(dephasing) * math.sqrt(c * c + s * s)


def max_decoherence(dephasing: float) -> float:
    """Worst-case deviation norm over all initial states: D = (1 - e^{-B2})/2."""
    if dephasing < 0.0:
        raise ValueError("dephasing exponent must be >= 0")
    return 0.5 * -math.expm1(-dephasing)  # expm1 stays accurate for small B2


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


def _find_crossing(
    d_of_t: Callable[[float], float],
    threshold: float,
    t_max: float,
) -> float:
    """First double t in (0, t_max] with d(t) >= threshold, by doubling + bisection.

    Doubling from the seed probe (or, below it, bisection from lo = 0)
    brackets the crossing as d(lo) < threshold <= d(hi); bisection runs
    until lo and hi are adjacent doubles and returns hi.  Falls back to a
    dense first-crossing scan (with a warning) if the doubling probes
    ever see d decrease.
    """
    d_end = d_of_t(t_max)
    if d_end < threshold:
        raise NoCrossingError(
            f"decoherence level {d_end:.6e} at t_max={t_max} never reaches "
            f"threshold {threshold:.6e}",
            d_at_t_max=d_end,
        )

    lo, hi = 0.0, min(T_SEED, t_max)
    prev = d_of_t(hi)
    # d(t_max) >= threshold ends the doubling at the latest
    while prev < threshold:
        t = min(2.0 * hi, t_max)
        cur = d_of_t(t)
        if cur < prev * (1.0 - 1e-12) - 1e-18:
            warnings.warn(
                "decoherence level is not monotone on the bracketing probes; "
                "falling back to a dense first-crossing scan",
                RuntimeWarning,
            )
            grid = linspace(0.0, t_max, 2049)
            lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if d_of_t(b) >= threshold)
            break
        lo, hi, prev = hi, t, cur
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if d_of_t(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def low_decoherence_time(
    threshold: float,
    spec: BathSpec,
    t_max: float,
) -> float:
    """The first double t with max_decoherence(B2(t)) >= threshold.

    For s > 2, B2 is not monotone: each of its terms rises while its
    argument r = omega_c t (or t / (beta m), m >= 1/(beta omega_c)) stays
    below tan(pi/s).  So a crossing before t_rise = tan(pi/s)/omega_c is
    searched there first, and it is the first one even when D(t_max) is
    lower.  B2 is memoized per call, so no probe evaluates it twice at the
    same t.  Raises NoCrossingError (carrying d(t_max)) if the threshold is
    not found, ValueError for thresholds outside (0, 1/2).
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 1/2), got {threshold}")
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")

    @functools.cache
    def d_of_t(t: float) -> float:
        return max_decoherence(dephasing_exponent(t, spec))

    if spec.s > 2.0:
        t_rise = math.tan(math.pi / spec.s) / spec.omega_c
        if t_rise < t_max and d_of_t(t_rise) >= threshold:
            return _find_crossing(d_of_t, threshold, t_rise)
    return _find_crossing(d_of_t, threshold, t_max)
