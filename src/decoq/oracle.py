"""Brute-force reference dynamics for a qubit coupled to truncated bath modes.

The composite Hilbert space is the qubit tensored with a handful of
oscillator modes, each truncated to n_fock levels.  Everything here is
exact linear algebra on that truncated Hamiltonian: exponentiate by
eigendecomposition, partial-trace the bath out.  The point is to have an
independent check of the reduced closed-form map and of the accuracy
order of the symmetric propagator splitting, so this module deliberately
shares no formulas with the closed-form path beyond the Hamiltonian
itself.

The coupling-plus-bath part H_ib = sigma_z x sum_k g_k (a_k + a_k^dag)
+ 1 x sum_k omega_k n_k is block-diagonal in sigma_z, and each block is
a Kronecker sum of the one-mode operators
h_{+-,k} = omega_k n_k +- g_k (a_k + a_k^dag).  A mode's parity
P = diag((-1)^n) gives P a_k P = -a_k also on the truncated levels, so
h_{-,k} = P h_{+,k} P.  With a product thermal state diag(p_k) per mode,
the bath trace of exp(-i H_ib t) rho_0 exp(i H_ib t) keeps the
populations and multiplies the charge coherence rho_01 by the real
product of traces

    chi(t) = prod_k tr[U_k diag(p_k) P U_k^dag P]
           = prod_k sum_ij (-1)^(i+j) p_{k,j} |U_{k,ij}|^2,  U_k = exp(-i h_{+,k} t),

so one n_fock x n_fock eigendecomposition per mode replaces the
composite one.  The split step A(t/2) B(t) A(t/2) therefore acts on the
2x2 state as A(t/2) (rho_01 -> chi rho_01) A(t/2), and the exact
evolution is the same map with A = 1 whenever E_J = 0.  chi is not the
closed-form B^2 of the continuum or mode-sum formulas, so the check stays
independent.  Dense d x d algebra is kept only where sigma_z is not
conserved: the splitting-order fit and the exact evolution at E_J != 0,
whose bath trace sum_icdj u_{ai,cj} rho_cd p_j conj(u_{bi,dj}) is taken
from the propagator u with no d x d density matrix.

Each entry point that takes beta checks its arguments and computes the
bath weights once, then calls the private split and exact maps, never
another entry point.

Conventions match the rest of the package: the qubit part of the
Hamiltonian is -E_J/2 sigma_x in the charge basis, the bath couples
through sigma_z, and energies are in ueV with time in units of
hbar/ueV.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from collections import namedtuple

import numpy as np

from .bath import _record, _validate_beta
from .discrete import DiscreteBath, dephasing_exponent_modes, phase_shift_modes
from .evolution import COMPUTATIONAL, EIGENBASIS, _check_time_and_e_j
from .states import QubitState, basis_change, evolve_real

# relative thermal weight of the highest retained Fock level above which
# the truncated thermal state is considered unreliable
TRUNCATION_WEIGHT_TOL = 1e-13

# measured split-vs-exact errors at or below this are dominated by float
# round-off and carry no information about the step size
ERROR_FLOOR = 1e-13

# largest composite Hilbert-space dimension a CompositeSystem may have
MAX_DIM = 4096


class DimensionCapError(ValueError):
    """Composite Hilbert space would exceed MAX_DIM."""


class BathTruncationWarning(UserWarning):
    """Fock truncation leaves non-negligible thermal weight out."""


class TruncatedBathMode(_record("TruncatedBathMode", "omega g n_fock")):
    """One oscillator mode: frequency omega (ueV), coupling g (ueV), n_fock levels."""

    __slots__ = ()

    def __new__(cls, omega: float, g: float, n_fock: int):
        # a float count would pass the checks below and np.arange would round it up
        n_fock = operator.index(n_fock)
        if not math.isfinite(omega) or omega <= 0.0:
            raise ValueError(f"mode frequency must be positive, got {omega}")
        if not math.isfinite(g):
            raise ValueError(f"mode coupling must be finite, got {g}")
        if n_fock < 2:
            raise ValueError(f"need at least two Fock levels, got {n_fock}")
        return super().__new__(cls, omega, g, n_fock)


class CompositeSystem(_record("CompositeSystem", "e_j modes")):
    """Qubit plus a finite list of truncated bath modes."""

    __slots__ = ()

    def __new__(cls, e_j: float, modes):
        # a tuple keeps the system hashable, as the eigensystem caches need
        modes = tuple(modes)
        if not math.isfinite(e_j) or e_j < 0.0:
            raise ValueError(f"Josephson energy must be >= 0, got {e_j}")
        if not modes:
            raise ValueError("at least one bath mode is required")
        if not all(isinstance(m, TruncatedBathMode) for m in modes):
            raise TypeError("modes must be TruncatedBathMode instances")
        self = super().__new__(cls, e_j, modes)
        if self.dim > MAX_DIM:
            raise DimensionCapError(
                f"composite dimension {self.dim} exceeds the cap {MAX_DIM}; "
                "reduce n_fock or the number of modes"
            )
        return self

    @property
    def bath_dim(self) -> int:
        return math.prod(m.n_fock for m in self.modes)

    @property
    def dim(self) -> int:
        return 2 * self.bath_dim


def _lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def _embed(modes, k: int, op: np.ndarray) -> np.ndarray:
    """Place op on mode k, identity on the others (bath space only)."""
    out = np.eye(1)
    for i, m in enumerate(modes):
        out = np.kron(out, op if i == k else np.eye(m.n_fock))
    return out


def build_hamiltonians(system: CompositeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Return (H_sys, H_int_plus_bath) on the full composite space.

    H_sys = -E_J/2 sigma_x x 1, and the second piece is
    sigma_z x sum_k g_k (a_k + a_k^dag) + 1 x sum_k omega_k n_k.
    """
    nb = system.bath_dim
    coupling = np.zeros((nb, nb))
    bath_energy = np.zeros((nb, nb))
    for k, m in enumerate(system.modes):
        a = _lowering(m.n_fock)
        coupling += m.g * _embed(system.modes, k, a + a.T)
        bath_energy += m.omega * _embed(system.modes, k, a.T @ a)
    h_sys = np.kron(-0.5 * system.e_j * np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(nb))
    h_ib = np.kron(np.array([[1.0, 0.0], [0.0, -1.0]]), coupling) + np.kron(np.eye(2), bath_energy)
    return h_sys, h_ib


@functools.lru_cache(maxsize=8)
def _eigensystem(system: CompositeSystem):
    """Cached (evals, evecs) of h_{+,k} = omega_k n_k + g_k (a_k + a_k^dag), per mode.

    The split map, and the exact map at E_J = 0, need nothing else: h_{-,k}
    is its parity mirror, and the composite H_ib is never built.
    """
    out = []
    for m in system.modes:
        a = _lowering(m.n_fock)
        evals, evecs = np.linalg.eigh(m.omega * (a.T @ a) + m.g * (a + a.T))
        evals.flags.writeable = False
        evecs.flags.writeable = False
        out.append((evals, evecs))
    return tuple(out)


@functools.lru_cache(maxsize=2)
def _dense_eigensystem(system: CompositeSystem):
    """Cached eigendecomposition of the composite H_total, for E_J != 0.

    Its eigenvectors take 8 d^2 bytes, so only the two most recent
    systems are kept.
    """
    h_sys, h_ib = build_hamiltonians(system)
    evals, evecs = np.linalg.eigh(h_sys + h_ib)
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def _propagator(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def gate_unitary(e_j: float, tau: float) -> np.ndarray:
    """Idle-gate unitary exp(i E_J tau sigma_x / 2) in the charge basis."""
    _check_time_and_e_j(tau, e_j)
    half = 0.5 * e_j * tau
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def _mode_weights(modes, beta: float) -> list[np.ndarray]:
    """Truncated Boltzmann weights of each mode's Fock levels.

    A mode whose beta omega overflows, beta = inf among them, is in its
    ground state.  Warns when the highest retained level still carries
    relative weight above TRUNCATION_WEIGHT_TOL; every public function
    calls this from its own body, so stacklevel 3 names its caller.
    """
    _validate_beta(beta)
    weights = []
    for m in modes:
        if math.isinf(beta * m.omega):
            probs = np.zeros(m.n_fock)
            probs[0] = 1.0
        else:
            top_weight = math.exp(-beta * m.omega * (m.n_fock - 1))
            if top_weight > TRUNCATION_WEIGHT_TOL:
                warnings.warn(
                    f"mode at omega={m.omega} keeps relative weight "
                    f"{top_weight:.2e} in its highest Fock level; "
                    "increase n_fock for a faithful thermal state",
                    BathTruncationWarning,
                    stacklevel=3,
                )
            probs = np.exp(-beta * m.omega * np.arange(m.n_fock))
            probs /= probs.sum()
        weights.append(probs)
    return weights


def thermal_bath_state(modes, beta: float) -> np.ndarray:
    """Truncated thermal state of the bath, diagonal in the Fock basis.

    The Kronecker product of the per-mode weights; beta = inf puts every
    mode in its ground state, and it warns as _mode_weights does.
    """
    return np.diag(functools.reduce(np.kron, _mode_weights(modes, beta)))


def _in_charge_basis(state: QubitState, reduce) -> QubitState:
    """reduce(charge-basis rho), hermitized, as a state in the basis state came in."""
    eigen = state.basis == EIGENBASIS
    reduced = reduce((basis_change(state) if eigen else state).rho)
    out = QubitState(0.5 * (reduced + reduced.conj().T), COMPUTATIONAL)
    return basis_change(out) if eigen else out


def _split_map(system: CompositeSystem, state: QubitState, weights, t: float) -> QubitState:
    """Reduced state after A(t/2) B(t) A(t/2), bath traced out per mode.

    The bath trace commutes with the qubit-only A, so B acts on the 2x2
    charge-basis state as rho_01 -> chi(t) rho_01 (see module docstring).
    """
    a_half = gate_unitary(system.e_j, 0.5 * t)
    chi = 1.0
    for (evals, evecs), p in zip(_eigensystem(system), weights):
        parity = (-1.0) ** np.arange(p.size)
        chi *= parity @ np.abs(_propagator(evals, evecs, t)) ** 2 @ (parity * p)
    a_dag, b_step = a_half.conj().T, np.array([[1.0, chi], [chi, 1.0]])
    return _in_charge_basis(state, lambda rho: a_half @ ((a_half @ rho @ a_dag) * b_step) @ a_dag)


def _exact_map(system: CompositeSystem, state: QubitState, weights, t: float) -> QubitState:
    """Exact reduced state: the split map at E_J = 0, else the dense bath trace."""
    if system.e_j == 0.0:
        return _split_map(system, state, weights, t)
    _check_time_and_e_j(t, system.e_j)
    evals, evecs = _dense_eigensystem(system)
    p = functools.reduce(np.kron, weights)
    nb = system.bath_dim
    u = _propagator(evals, evecs, t).reshape(2, nb, 2, nb)
    return _in_charge_basis(
        state, lambda rho: np.einsum("aicj,cd,bidj,j->ab", u, rho, u.conj(), p, optimize=True)
    )


def evolve_exact(system: CompositeSystem, state: QubitState, beta: float, t: float) -> QubitState:
    """Numerically exact reduced state at time t from a product initial state.

    The qubit state may be given in either basis; the result comes back in
    the same basis it arrived in.  At E_J = 0 sigma_z is conserved, so the
    split map with A = 1 is exact; otherwise the composite H_total is
    diagonalized and the bath traced out of its propagator directly.
    """
    return _exact_map(system, state, _mode_weights(system.modes, beta), t)


def evolve_split(system: CompositeSystem, state: QubitState, beta: float, t: float) -> QubitState:
    """Reduced state under the symmetric splitting A(t/2) B(t) A(t/2).

    A is the bare-qubit propagator, B covers the coupling plus the bath
    energy for the full step.
    """
    return _split_map(system, state, _mode_weights(system.modes, beta), t)


class ErrorScalingResult(namedtuple("ErrorScalingResult", "times errors slope intercept")):
    """Log-log fit of the split-vs-exact error against step size."""

    __slots__ = ()


def error_scaling(
    system: CompositeSystem, state: QubitState, beta: float, times
) -> ErrorScalingResult:
    """Fit the order of the splitting error over a ladder of step sizes.

    Evolves the same initial state by one exact step and one split step
    for each t, takes the Frobenius distance of the reduced states and
    fits log(error) against log(t).  A third-order-accurate splitting
    gives a slope near 3.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 4:
        raise ValueError("need at least four step sizes for a credible fit")
    if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
        raise ValueError("step sizes must be positive and finite")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("step sizes must be strictly increasing")

    # [H_sys, H_ib] = i E_J sigma_y x sum_k g_k (a_k + a_k^dag)
    if system.e_j == 0.0 or not any(m.g for m in system.modes):
        raise RuntimeError(
            "the two propagator factors commute, so the splitting is exact "
            "and there is no error to fit"
        )
    weights = _mode_weights(system.modes, beta)
    evals, _ = _dense_eigensystem(system)
    if times[-1] * np.max(np.abs(evals)) > 1.5:
        warnings.warn(
            "largest step is not small against the total Hamiltonian norm; "
            "the fitted slope may be contaminated by higher orders",
            stacklevel=2,
        )

    errors = np.empty_like(times)
    for i, t in enumerate(times):
        exact = _exact_map(system, state, weights, t)
        split = _split_map(system, state, weights, t)
        errors[i] = np.linalg.norm(exact.rho - split.rho)

    keep = errors > ERROR_FLOOR
    if not np.all(keep):
        warnings.warn(
            f"{np.count_nonzero(~keep)} step size(s) gave errors at the "
            "round-off floor and were excluded from the fit",
            stacklevel=2,
        )
    if np.count_nonzero(keep) < 3:
        raise RuntimeError(
            "fewer than three points survived the round-off floor; "
            "use larger step sizes"
        )
    slope, intercept = np.polyfit(np.log(times[keep]), np.log(errors[keep]), 1)
    return ErrorScalingResult(
        times=times[keep], errors=errors[keep], slope=float(slope), intercept=float(intercept)
    )


def discrete_bath_from_modes(modes) -> DiscreteBath:
    """Collect (omega, g^2) pairs into a DiscreteBath, merging equal frequencies."""
    merged: dict[float, float] = {}
    for m in modes:
        merged[m.omega] = merged.get(m.omega, 0.0) + m.g * m.g
    omegas = np.array(sorted(merged))
    return DiscreteBath(omegas=omegas, g_sq=np.array([merged[w] for w in omegas]))


class SplitComparison(
    namedtuple("SplitComparison", "rho_split rho_closed b_squared shift max_abs_diff")
):
    """Side-by-side of the split-propagator oracle and the closed-form map."""

    __slots__ = ()


def split_vs_closed_form(
    system: CompositeSystem, state: QubitState, beta: float, t: float
) -> SplitComparison:
    """Compare one split step against the closed-form reduced map.

    The two should agree to the Fock-truncation error: the closed form is
    the exact partial trace of the split propagator over a thermal bath.
    """
    weights = _mode_weights(system.modes, beta)
    work = state if state.basis == EIGENBASIS else basis_change(state)
    bath = discrete_bath_from_modes(system.modes)
    b2 = dephasing_exponent_modes(t, bath, beta)
    shift = phase_shift_modes(t, bath)
    closed = evolve_real(work, b2, t, system.e_j).rho
    split = _split_map(system, work, weights, t).rho
    return SplitComparison(
        rho_split=split,
        rho_closed=closed,
        b_squared=b2,
        shift=shift,
        max_abs_diff=float(np.max(np.abs(split - closed))),
    )
