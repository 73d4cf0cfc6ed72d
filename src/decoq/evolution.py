"""Reduced qubit dynamics under pure dephasing, and the deviation-norm measure.

Density matrices live in the eigenbasis of the degeneracy-point qubit
Hamiltonian H_s = -(E_J/2) sigma_x, whose eigenstates are

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

import math
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .bath import BathSpec, dephasing_exponent

EIGENBASIS = "eigenbasis"
COMPUTATIONAL = "computational"
_BASES = (EIGENBASIS, COMPUTATIONAL)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10


class NoCrossingError(RuntimeError):
    """The decoherence level never reaches the threshold within [0, t_max]."""

    def __init__(self, message: str, d_at_t_max: float):
        super().__init__(message)
        self.d_at_t_max = d_at_t_max


@dataclass(frozen=True)
class QubitState:
    """Validated 2x2 density matrix with an explicit basis tag."""

    rho: np.ndarray
    basis: str = EIGENBASIS

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        if self.basis not in _BASES:
            raise ValueError(f"basis must be one of {_BASES}, got {self.basis!r}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not hermitian within tolerance")
        if abs(np.trace(rho) - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.min(np.linalg.eigvalsh(rho)) < POSITIVITY_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class DeviationOperator:
    """Traceless hermitian difference between actual and ideal states."""

    sigma: np.ndarray
    basis: str = EIGENBASIS

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=complex)
        if sigma.shape != (2, 2):
            raise ValueError(f"deviation operator must be 2x2, got {sigma.shape}")
        if np.max(np.abs(sigma - sigma.conj().T)) > HERMITICITY_TOL:
            raise ValueError("deviation operator is not hermitian within tolerance")
        if abs(np.trace(sigma)) > TRACE_TOL:
            raise ValueError("deviation operator must be traceless")
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class DecoherenceCurve:
    """Sampled decoherence quantities on a common, strictly increasing time grid."""

    times: np.ndarray
    dephasing: np.ndarray
    shift: np.ndarray
    d: np.ndarray
    norms: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        # copy before freezing so caller arrays keep their own flags
        t = np.array(self.times, dtype=float)
        b2 = np.array(self.dephasing, dtype=float)
        c = np.array(self.shift, dtype=float)
        d = np.array(self.d, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must be a 1-d grid with at least two samples")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for name, arr in (("dephasing", b2), ("shift", c), ("d", d)):
            if arr.shape != t.shape:
                raise ValueError(f"{name} must match the time grid shape")
        if np.any(d < 0.0) or np.any(d > 0.5 + 1e-12):
            raise ValueError("d samples must lie in [0, 1/2]")
        frozen_norms = {}
        for name, arr in self.norms.items():
            series = np.array(arr, dtype=float)
            if series.shape != t.shape:
                raise ValueError(f"norm series {name!r} must match the time grid")
            series.setflags(write=False)
            frozen_norms[name] = series
        for arr in (t, b2, c, d):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "dephasing", b2)
        object.__setattr__(self, "shift", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "norms", frozen_norms)


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
    _require_eigenbasis(state)
    _validate_evolution_args(0.0, t, e_j)
    rho = state.rho
    phase = complex(math.cos(t * e_j), math.sin(t * e_j))
    out = np.array(
        [[rho[0, 0], np.conj(rho[1, 0] * phase)], [rho[1, 0] * phase, rho[1, 1]]],
        dtype=complex,
    )
    return QubitState(out, EIGENBASIS)


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


# overlap[j, xi] = <phi_j | xi> between eigenstates and sigma_z eigenstates
_OVERLAP = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
_CHI = (1, -1)


def evolve_real_influence_sum(
    state: QubitState, dephasing: float, shift: float, t: float, e_j: float
) -> QubitState:
    """Reduced map evaluated as the literal eight-index influence-functional sum.

    The split propagator sandwiches the dephasing factor between two free
    half-steps; summing over every eigenbasis/charge-basis index pair with
    the influence factor exp(-B2 (chi - chi')^2/4 - i C (chi^2 - chi'^2))
    must reproduce evolve_real.  The C-dependent phase cancels identically
    for chi in {+1, -1}.
    """
    from .bath import influence_exponent

    _require_eigenbasis(state)
    _validate_evolution_args(dephasing, t, e_j)
    rho = state.rho
    lam = (0.5 * e_j, -0.5 * e_j)
    F = [
        [np.exp(influence_exponent(_CHI[xi], _CHI[sg], dephasing, shift)) for sg in range(2)]
        for xi in range(2)
    ]
    out = np.zeros((2, 2), dtype=complex)
    idx = range(2)
    for m in idx:
        for n in idx:
            acc = 0.0 + 0.0j
            for alpha, xi, beta_i, p, q, mu, sg, nu in product(idx, repeat=8):
                ortho = (m == alpha) * (beta_i == p) * (q == mu) * (nu == n)
                if not ortho:
                    continue
                # each free factor acts for t/2
                ph = np.exp(0.5j * t * (lam[mu] + lam[nu] - lam[alpha] - lam[beta_i]))
                acc += (
                    ph
                    * _OVERLAP[alpha, xi]
                    * _OVERLAP[beta_i, xi]
                    * rho[p, q]
                    * _OVERLAP[q, sg]
                    * _OVERLAP[nu, sg]
                    * F[xi][sg]
                )
            out[m, n] = acc
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


def deviation_norm_closed_form(state: QubitState, dephasing, t, e_j: float):
    """Deviation norm without running the evolution pipeline.

    ||sigma||(t) = 1/2 (1 - e^{-B2}) sqrt((rho_00 - rho_11)^2
                                          + |rho_01 - rho_10 e^{i t E_J}|^2)

    For a real initial coherence the second term reduces to
    4 |rho_10|^2 sin^2(E_J t / 2).  Accepts scalar or array dephasing/t.
    """
    _require_eigenbasis(state)
    rho = state.rho
    b2 = np.asarray(dephasing, dtype=float)
    if np.any(b2 < 0.0):
        raise ValueError("dephasing exponent must be >= 0")
    decay = -np.expm1(-b2)  # 1 - e^{-B2}, accurate for small B2
    pop = (rho[0, 0] - rho[1, 1]).real
    coh = np.abs(rho[0, 1] - rho[1, 0] * np.exp(1j * np.asarray(t) * e_j))
    out = 0.5 * decay * np.sqrt(pop * pop + coh * coh)
    return out if out.ndim else float(out)


def max_decoherence(dephasing):
    """Worst-case deviation norm over all initial states: D = (1 - e^{-B2})/2."""
    b2 = np.asarray(dephasing, dtype=float)
    if np.any(b2 < 0.0):
        raise ValueError("dephasing exponent must be >= 0")
    out = 0.5 * (-np.expm1(-b2))
    return out if out.ndim else float(out)


def bloch_supremum_scan(
    dephasing: float, t: float, e_j: float, n_theta: int = 200, n_phi: int = 200
) -> tuple[float, float, float]:
    """Grid-search the closed-form deviation norm over the pure-state sphere.

    Returns (max value, theta, phi) of the maximizing grid point.  Serves as
    a brute-force check that the supremum equals max_decoherence and is
    attained at theta = 0.
    """
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    decay = -np.expm1(-dephasing)
    val = 0.5 * decay * np.sqrt(
        np.cos(th) ** 2 + np.sin(th) ** 2 * np.sin(ph + 0.5 * t * e_j) ** 2
    )
    k = int(np.argmax(val))
    i, j = divmod(k, n_phi)
    return float(val[i, j]), float(theta[i]), float(phi[j])


def _find_crossing(
    d_of_t: Callable[[float], float],
    threshold: float,
    t_max: float,
    rtol: float,
    t_seed: float = 1e-4,
) -> float:
    """First t in (0, t_max] with d(t) >= threshold, by doubling + bisection.

    Falls back to a dense first-crossing scan (with a warning) if the
    doubling probes ever see d decrease.
    """
    d_end = d_of_t(t_max)
    if d_end < threshold:
        raise NoCrossingError(
            f"decoherence level {d_end:.6e} at t_max={t_max} never reaches "
            f"threshold {threshold:.6e}",
            d_at_t_max=d_end,
        )

    lo = 0.0
    hi = None
    t = min(t_seed, t_max)
    prev = d_of_t(t)
    if prev >= threshold:
        hi = t
    else:
        lo = t
        non_monotone = False
        while t < t_max:
            t2 = min(2.0 * t, t_max)
            cur = d_of_t(t2)
            if cur < prev * (1.0 - 1e-12) - 1e-18:
                non_monotone = True
                break
            if cur >= threshold:
                lo, hi = t, t2
                break
            lo, prev, t = t2, cur, t2
        if non_monotone:
            warnings.warn(
                "decoherence level is not monotone on the bracketing probes; "
                "falling back to a dense first-crossing scan",
                RuntimeWarning,
            )
            grid = np.linspace(0.0, t_max, 2049)
            lo = 0.0
            hi = t_max
            for g_lo, g_hi in zip(grid[:-1], grid[1:]):
                if d_of_t(g_hi) >= threshold:
                    lo, hi = g_lo, g_hi
                    break
        if hi is None:
            hi = t_max
    for _ in range(60):
        if hi - lo <= rtol * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        if d_of_t(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def low_decoherence_time(
    threshold: float,
    spec: BathSpec,
    t_max: float,
    rtol: float = 1e-4,
) -> float:
    """Smallest t with max_decoherence(B2(t)) = threshold, to relative rtol.

    The dephasing exponent is memoized per call, so the bracketing and
    bisection probes never evaluate B2 twice at the same t.  Raises
    NoCrossingError (carrying d(t_max)) if the threshold is never reached,
    ValueError for thresholds outside (0, 1/2).
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 1/2), got {threshold}")
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    cache: dict[float, float] = {}

    def d_of_t(t: float) -> float:
        if t not in cache:
            cache[t] = max_decoherence(dephasing_exponent(t, spec))
        return cache[t]

    return _find_crossing(d_of_t, threshold, t_max, rtol)
