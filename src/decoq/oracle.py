"""Brute-force reference dynamics for a qubit coupled to truncated bath modes.

The composite Hilbert space is the qubit tensored with a handful of
oscillator modes, each held at the Fock levels its thermal state needs:
max(n_fock, 1 + ceil(ln(1/TRUNCATION_WEIGHT_TOL)/(beta omega))), so n_fock
is a floor and the top level weighs at most TRUNCATION_WEIGHT_TOL relative
to the ground state.  Everything here is exact linear algebra on that
truncated Hamiltonian: exponentiate by eigendecomposition, partial-trace
the bath out.  The point is to have an independent check of the reduced
closed-form map and of the accuracy order of the symmetric propagator
splitting, so this module deliberately shares no formulas with the
closed-form path beyond the Hamiltonian itself.

The coupling-plus-bath part H_ib = sigma_z x sum_k g_k (a_k + a_k^dag)
+ 1 x sum_k omega_k n_k is block-diagonal in sigma_z, and each block is
a Kronecker sum of the one-mode operators
h_{+-,k} = omega_k n_k +- g_k (a_k + a_k^dag).  A mode's parity
P = diag((-1)^n) gives P a_k P = -a_k also on the truncated levels, so
h_{-,k} = P h_{+,k} P.  With a product thermal state diag(p_k) per mode,
the bath trace of exp(-i H_ib t) rho_0 exp(i H_ib t) keeps the
populations and multiplies the charge coherence rho_01 by the real
product of traces, which with U_k = exp(-i h_{+,k} t) and the eigensystem
h_{+,k} = V diag(E) V^T expands over pairs of eigenvalues:

    chi(t) = prod_k tr[U_k diag(p_k) P U_k^dag P]
           = prod_k sum_ij (-1)^(i+j) p_{k,j} |U_{k,ij}|^2
           = prod_k sum_nm cos((E_n - E_m) t) (V^T P V)_nm (V^T P diag(p_k) V)_nm,

so one eigendecomposition per mode, on its held levels, replaces the
composite one, and no complex matrix is formed.  The split step
A(t/2) B(t) A(t/2) therefore acts on the 2x2 state as
A(t/2) (rho_01 -> chi rho_01) A(t/2), and the exact evolution is the same
map with A = 1 whenever E_J = 0.  chi is not the closed-form B^2 of the
continuum or mode-sum formulas, so the check stays independent.  At
E_J != 0 sigma_z is not conserved, but the parity sigma_x x P,
P = prod_k P_k, is: on the states |0>|v> +- |1>P|v>, H is the (d/2)-square
H_+- = h -+ (E_J/2) P, h the Kronecker sum of the h_{+,k}.  With
U_+- = exp(-i H_+- t) and S, D = (U_+ +- U_-)/2, exp(-i H t) has the
charge x Fock blocks [[S, D P], [P D, P S P]], from which the bath trace
sum_icdj u_{ai,cj} rho_cd p_j conj(u_{bi,dj}) is taken with no composite H
and no d x d density matrix.

Each entry point holds the bath once (_held), then calls the private
split and exact maps, never another entry point; so the per-mode and the
dense path, and both sides of error_scaling, see the same held system.
Where a mode needs more than MAX_DIM // 2 levels, or a dense path more
than MAX_DIM dimensions, it raises DimensionCapError instead.

Conventions match the rest of the package: the qubit part of the
Hamiltonian is -E_J/2 sigma_x in the charge basis, the bath couples
through sigma_z, and energies are in ueV with time in units of
hbar/ueV.
"""

import functools
import math
import operator
import warnings
from collections import namedtuple

import numpy as np

from .bath import _check_phase, _record, _validate_beta
# no map calls phase_shift_modes; it stays bound here, where the benchmark's tracer wraps it
from .discrete import DiscreteBath, dephasing_exponent_modes, phase_shift_modes
from .evolution import COMPUTATIONAL, EIGENBASIS, _check_e_j, _check_time_and_e_j
from .states import QubitState, basis_change, evolve_real

# largest relative thermal weight of a held mode's highest Fock level;
# _held keeps 1 + ceil(_HOLD_LOG/(beta omega)) levels to stay under it
TRUNCATION_WEIGHT_TOL = 1e-13
_HOLD_LOG = math.log(1.0 / TRUNCATION_WEIGHT_TOL)

# measured split-vs-exact errors at or below this are dominated by float
# round-off and carry no information about the step size
ERROR_FLOOR = 1e-13

# largest composite dimension d of the dense (d/2)-square parity blocks
MAX_DIM = 4096


class DimensionCapError(ValueError):
    """The held bath would need a mode past MAX_DIM // 2 levels or a dense d past MAX_DIM."""


class TruncatedBathMode(_record("TruncatedBathMode", "omega g n_fock")):
    """One oscillator mode: frequency omega (ueV), coupling g (ueV), at least n_fock levels."""

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
        _check_e_j(e_j)
        if not modes:
            raise ValueError("at least one bath mode is required")
        if not all(isinstance(m, TruncatedBathMode) for m in modes):
            raise TypeError("modes must be TruncatedBathMode instances")
        return super().__new__(cls, e_j, modes)

    @property
    def bath_dim(self) -> int:
        return math.prod(m.n_fock for m in self.modes)

    @property
    def dim(self) -> int:
        return 2 * self.bath_dim


def _mode_operator(m: TruncatedBathMode) -> np.ndarray:
    """h_{+,k} = omega a^dag a + g (a + a^dag) of one mode on its n_fock levels."""
    a = np.diag(np.sqrt(np.arange(1.0, m.n_fock)), 1)
    return m.omega * (a.T @ a) + m.g * (a + a.T)


def _kron_sum(ops) -> np.ndarray:
    """sum_k 1 x ... x op_k x ... x 1, formed pairwise as kron(A, 1) + kron(1, B)."""
    return functools.reduce(
        lambda a, b: np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b), ops
    )


@functools.lru_cache(maxsize=8)
def _eigensystem(system: CompositeSystem):
    """Cached (evals, evecs) of h_{+,k}, _mode_operator(m_k), per mode.

    The split map, and the exact map at E_J = 0, need nothing else: h_{-,k}
    is its parity mirror, and the composite H_ib is never built.
    """
    out = tuple(np.linalg.eigh(_mode_operator(m)) for m in system.modes)
    for array in (a for pair in out for a in pair):
        array.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2)
def _dense_eigensystem(system: CompositeSystem):
    """Cached bath parity P and (evals, evecs) of H_+ and H_- = h -+ (E_J/2) P, for E_J != 0.

    The two blocks' eigenvectors take 4 d^2 bytes, so only the two most
    recent systems are kept.  _held has capped d at MAX_DIM.
    """
    parity = functools.reduce(np.kron, [(-1.0) ** np.arange(m.n_fock) for m in system.modes])
    h = _kron_sum([_mode_operator(m) for m in system.modes])
    blocks = tuple(np.linalg.eigh(h - s * system.e_j * np.diag(parity)) for s in (0.5, -0.5))
    for array in (parity, *(a for pair in blocks for a in pair)):
        array.flags.writeable = False
    return parity, blocks


def gate_unitary(e_j: float, tau: float) -> np.ndarray:
    """Idle-gate unitary exp(i E_J tau sigma_x / 2) in the charge basis."""
    _check_time_and_e_j(tau, e_j)
    half = 0.5 * e_j * tau
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def _held(system: CompositeSystem, beta: float, dense: bool = False):
    """(system with each mode at the levels its thermal state needs, their weights).

    A mode keeps max(n_fock, 1 + ceil(_HOLD_LOG/(beta omega))) levels, n_fock
    where beta omega overflows (beta = inf among them).  Level 0 weighs 1
    and level k >= 1 exp(-beta omega k).  A mode past MAX_DIM // 2 levels,
    the largest eigh the dense path allows, or with dense a composite
    dimension past MAX_DIM, is a DimensionCapError naming levels and beta.
    """
    _validate_beta(beta)
    modes, weights = [], []
    for m in system.modes:
        try:
            levels = max(m.n_fock, 1 + math.ceil(_HOLD_LOG / (beta * m.omega)))
        except (OverflowError, ZeroDivisionError):  # the count is past the largest double
            levels = math.inf
        if levels > MAX_DIM // 2:
            raise DimensionCapError(f"mode at omega={m.omega} needs {float(levels):.6g} Fock "
                                    f"levels at beta={beta}, past the cap {MAX_DIM // 2}")
        probs = np.ones(levels)
        with np.errstate(over="ignore"):  # a beta omega k past the largest double is weight 0
            probs[1:] = np.exp(-beta * m.omega * np.arange(1, levels))
        modes.append(m._replace(n_fock=levels))
        weights.append(probs / probs.sum())
    held = system._replace(modes=modes)
    if dense and held.dim > MAX_DIM:
        raise DimensionCapError(
            f"composite dimension {held.dim} of the held levels "
            f"{tuple(m.n_fock for m in modes)} at beta={beta} exceeds the cap {MAX_DIM}")
    return held, weights


def _in_charge_basis(state: QubitState, reduce) -> QubitState:
    """reduce(charge-basis rho) as a state in the basis state came in."""
    eigen = state.basis == EIGENBASIS
    out = QubitState(reduce((basis_change(state) if eigen else state).rho), COMPUTATIONAL)
    return basis_change(out) if eigen else out


def _split_map(system: CompositeSystem, weights, state: QubitState, t: float) -> QubitState:
    """Reduced state after A(t/2) B(t) A(t/2), bath traced out per mode.

    The bath trace commutes with the qubit-only A, so B acts on the 2x2
    charge-basis state as rho_01 -> chi(t) rho_01 (see module docstring).
    """
    _check_time_and_e_j(t, system.e_j)  # so an error names t, not t/2
    a_half = gate_unitary(system.e_j, 0.5 * t)
    chi = 1.0
    for (evals, evecs), p in zip(_eigensystem(system), weights):
        _check_phase("omega", float(np.max(np.abs(evals))), t)
        signed = evecs.T * (-1.0) ** np.arange(p.size)  # V^T P
        chi *= np.sum(np.cos(np.subtract.outer(evals, evals) * t)
                      * (signed @ evecs) * ((signed * p) @ evecs))
    a_dag, b_step = a_half.conj().T, np.array([[1.0, chi], [chi, 1.0]])
    return _in_charge_basis(state, lambda rho: a_half @ ((a_half @ rho @ a_dag) * b_step) @ a_dag)


def _exact_map(system: CompositeSystem, weights, state: QubitState, t: float) -> QubitState:
    """Exact reduced state: the split map at E_J = 0, else the bath trace of the parity blocks."""
    if system.e_j == 0.0:
        return _split_map(system, weights, state, t)
    _check_time_and_e_j(t, system.e_j)
    parity, blocks = _dense_eigensystem(system)
    for evals, _ in blocks:
        _check_phase("omega", float(np.max(np.abs(evals))), t)
    u_plus, u_minus = ((evecs * np.exp(-1j * evals * t)) @ evecs.T for evals, evecs in blocks)
    s, d, pc = 0.5 * (u_plus + u_minus), 0.5 * (u_plus - u_minus), parity[:, None]
    u = np.array([[s, d * parity], [pc * d, pc * s * parity]])  # u[a, c]: charge block a, c
    p = functools.reduce(np.kron, weights)
    return _in_charge_basis(
        state, lambda rho: np.einsum("acij,cd,bdij,j->ab", u, rho, u.conj(), p, optimize=True)
    )


def evolve_exact(system: CompositeSystem, state: QubitState, beta: float, t: float) -> QubitState:
    """Numerically exact reduced state at time t from a product initial state.

    The qubit state may be given in either basis; the result comes back in
    the same basis it arrived in.  At E_J = 0 sigma_z is conserved, so the
    split map with A = 1 is exact; otherwise H's two parity blocks are
    diagonalized and the bath traced out of their propagators directly.
    """
    return _exact_map(*_held(system, beta, dense=system.e_j != 0.0), state, t)


def evolve_split(system: CompositeSystem, state: QubitState, beta: float, t: float) -> QubitState:
    """Reduced state under the symmetric splitting A(t/2) B(t) A(t/2).

    A is the bare-qubit propagator, B covers the coupling plus the bath
    energy for the full step.
    """
    return _split_map(*_held(system, beta), state, t)


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
    system, weights = _held(system, beta, dense=True)
    _, blocks = _dense_eigensystem(system)
    if times[-1] * max(np.max(np.abs(evals)) for evals, _ in blocks) > 1.5:
        warnings.warn(
            "largest step is not small against the total Hamiltonian norm; "
            "the fitted slope may be contaminated by higher orders",
            stacklevel=2,
        )

    errors = np.empty_like(times)
    for i, t in enumerate(times):
        exact = _exact_map(system, weights, state, t)
        split = _split_map(system, weights, state, t)
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


class SplitComparison(
    namedtuple("SplitComparison", "rho_split rho_closed b_squared max_abs_diff")
):
    """Side-by-side of the split-propagator oracle and the closed-form map."""

    __slots__ = ()


def split_vs_closed_form(
    system: CompositeSystem, state: QubitState, beta: float, t: float
) -> SplitComparison:
    """Compare one split step against the closed-form reduced map.

    The two agree to round-off: the closed form is the exact partial trace
    of the split propagator over a thermal bath, and the held levels leave
    out at most TRUNCATION_WEIGHT_TOL of a mode's thermal weight.  A strong
    coupling's displacement is not held; it needs a higher n_fock (README).
    """
    held, weights = _held(system, beta)
    work = state if state.basis == EIGENBASIS else basis_change(state)
    bath = DiscreteBath([m.omega for m in system.modes], [m.g * m.g for m in system.modes])
    b2 = dephasing_exponent_modes(t, bath, beta)
    closed = evolve_real(work, b2, t, system.e_j).rho
    split = _split_map(held, weights, work, t).rho
    return SplitComparison(
        rho_split=split,
        rho_closed=closed,
        b_squared=b2,
        max_abs_diff=float(np.max(np.abs(split - closed))),
    )
