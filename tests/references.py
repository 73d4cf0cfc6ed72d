"""The independent references the tests check decoq against, each written once.

pytest does not collect this module; the test modules import from it.
Every reference's docstring ends with what it takes from decoq, and that
is at most a record constructor, a tolerance constant or `BLOCH_GRID`:
none calls a decoq function that computes.  A reference reads the fields
of the BathSpec, DiscreteBath, CompositeSystem or QubitState it is given.

mpmath_b2 and mpmath_c set their own digits (`_digits`): 40 + ceil(2s),
since a large s cancels 2 more per unit of s in their sums, plus
2 max(0, ceil(-log10 min(omega_c t, t/beta))), t/beta only at finite
beta, since below 1 each of their subtractions loses about 2 digits per
decade of the smaller of the two.  mpmath_g sets its own: 40, plus that
count (`_lost`) for each of r, |mu| and |mu + 1|.  The other mpmath
references work at fixed digits, which no caller sets.
"""

import cmath
import functools
import math
from itertools import product

import mpmath
import numpy as np

from decoq.evolution import COMPUTATIONAL
from decoq.oracle import TRUNCATION_WEIGHT_TOL
from decoq.states import BLOCH_GRID, HERMITICITY_TOL, POSITIVITY_TOL, TRACE_TOL, QubitState


def on_the_rise(t_max, spec):
    """t_max cut to t_rise = tan(pi/s)/omega_c for s > 2, where every crossing is proved."""
    return min(t_max, math.tan(math.pi / spec.s) / spec.omega_c) if spec.s > 2.0 else t_max


# ---------------------------------------------------------------- B2, C and D


def _lost(small):
    """The digits a subtraction loses to a small part of its terms: 2 per decade below 1."""
    return 2 * max(0, math.ceil(-math.log10(small))) if small > 0.0 else 0


def _digits(t, spec):
    """The digits of mpmath_b2 and mpmath_c at t: the rule in the module docstring."""
    small = min([spec.omega_c * t] + ([t / spec.beta] if math.isfinite(spec.beta) else []))
    return 40 + math.ceil(2.0 * spec.s) + _lost(small)


def mpmath_g(mu, r):
    """G_mu(r) = Gamma(mu) [1 - Re (1 - i r)^-mu] from mpmath's complex power.

    At mu = 0 it is its limit Re log(1 - i r), at mu = -1 its limit
    -Re[(1 - i r) log(1 - i r)].  Its digits are 40 plus _lost of r, |mu|
    and |mu + 1|: the subtraction loses 2 per decade of r below 1, and
    near the poles of Gamma at 0 and -1 one per decade of |mu| or |mu + 1|.

    From decoq: nothing.
    """
    with mpmath.workdps(40 + _lost(r) + _lost(abs(mu)) + _lost(abs(mu + 1.0))):
        z = mpmath.mpc(1, -mpmath.mpf(r))
        if mu == 0.0:
            return float(mpmath.re(mpmath.log(z)))
        if mu == -1.0:
            return float(-mpmath.re(z * mpmath.log(z)))
        return float(mpmath.gamma(mu) * (1 - mpmath.re(z ** -mpmath.mpf(mu))))


@functools.lru_cache(maxsize=64)
def mpmath_b2(t, spec):
    """B2 from the coth expansion, summed over n by mpmath special functions.

    4 eta [omega_c^nu G_nu(x) + 2 beta^-nu Gamma(nu) (zeta(nu, 1+a) - Re zeta(nu, 1+a-iy))]
    with G_nu(x) = Gamma(nu) [1 - Re (1 - ix)^-nu]; the thermal sum is
    2 (lnG(1+a) - Re lnG(1+a+iy)) at nu = 0 and (Re psi(1+a+iy) - psi(1+a))/beta
    at nu = 1, the limits of the zeta difference.  Cached: mpmath_d and
    the tests that check B2 and D at one point evaluate it once.

    From decoq: nothing.
    """
    with mpmath.workdps(_digits(t, spec)):
        wc, t, nu = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s) - 1
        x = wc * t
        if nu == 0:
            total = mpmath.log1p(x * x) / 2
        else:
            total = wc**nu * mpmath.gamma(nu) * (1 - mpmath.re(mpmath.mpc(1, -x) ** -nu))
        if math.isfinite(spec.beta):
            beta = mpmath.mpf(spec.beta)
            a, y = 1 / (beta * wc), t / beta
            z = mpmath.mpc(1 + a, y)
            if nu == 0:
                total += 2 * (mpmath.loggamma(1 + a) - mpmath.re(mpmath.loggamma(z)))
            elif nu == 1:
                total += 2 * (mpmath.re(mpmath.digamma(z)) - mpmath.digamma(1 + a)) / beta
            else:
                total += 2 * beta**-nu * mpmath.gamma(nu) * (
                    mpmath.zeta(nu, 1 + a) - mpmath.re(mpmath.zeta(nu, mpmath.conj(z)))
                )
        return float(4 * spec.eta * total)


def mpmath_c(t, spec):
    """C(t) = eta omega_c^nu [Gamma(nu+1) x - Gamma(nu) Im (1 - ix)^-nu].

    At nu = 0 it is eta (x - atan x).  Both are O(x^3) differences of O(x)
    terms below x = 1.

    From decoq: nothing.
    """
    with mpmath.workdps(_digits(t, spec)):
        wc, t, nu = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s) - 1
        x = wc * t
        if nu == 0:
            return float(spec.eta * (x - mpmath.atan(x)))
        return float(spec.eta * wc**nu * (
            mpmath.gamma(nu + 1) * x - mpmath.gamma(nu) * mpmath.im(mpmath.mpc(1, -x) ** -nu)
        ))


def mpmath_d(t, spec):
    """D = -expm1(-B2)/2 from mpmath_b2, at 30 digits.

    From decoq: nothing.
    """
    b2 = mpmath_b2(t, spec)
    with mpmath.workdps(30):
        return float(-mpmath.expm1(-mpmath.mpf(b2)) / 2)


def mpmath_norm(d, theta, phi, t, e_j):
    """A pure state's deviation norm D hypot(cos theta, sin theta sin(phi + t E_J/2)).

    At 30 digits, from D given as a double.

    From decoq: nothing.
    """
    with mpmath.workdps(30):
        half = mpmath.mpf(t) * e_j / 2
        lift = mpmath.sin(theta) * mpmath.sin(phi + half)
        return float(d * mpmath.hypot(mpmath.cos(theta), lift))


def mpmath_direct(t, spec, shift=False):
    """B2 (or C with shift=True) by mpmath quadrature of its defining integral, at 20 digits.

    Independent of the coth expansion.  [0, 2 pi/t] is integrated as
    written.  Beyond it the oscillating factor is split off: f(w) w t or
    f(w) is integrated on the real line and f(w) exp(i w t) on the vertical
    ray w1 + i u, where it decays like exp(-u t).  f has no singularity
    with Re w > 0, so the rotation is exact.

    From decoq: nothing.
    """
    with mpmath.workdps(20):
        wc, t, s = mpmath.mpf(spec.omega_c), mpmath.mpf(t), mpmath.mpf(spec.s)
        beta = mpmath.mpf(spec.beta) if math.isfinite(spec.beta) else None

        def f(w):
            v = w ** (s - 2) * mpmath.exp(-w / wc)
            return v * mpmath.coth(beta * w / 2) if beta is not None and not shift else v

        if shift:
            def head(w):
                return f(w) * (w * t - mpmath.sin(w * t))

            def smooth(w):
                return f(w) * w * t
        else:
            def head(w):
                return 2 * f(w) * mpmath.sin(w * t / 2) ** 2

            smooth = f
        w1 = 2 * mpmath.pi / t
        inner = mpmath.quad(head, [0] + [wc * k for k in (1, 8) if wc * k < w1] + [w1])
        outer = mpmath.quad(smooth, [w1] + [w for w in (wc, 8 * wc) if w > w1] + [mpmath.inf])
        ray = mpmath.quad(
            lambda u: f(mpmath.mpc(w1, u)) * mpmath.exp(-u * t), [0, 2 / t, 16 / t, mpmath.inf]
        )
        osc = mpmath.mpc(0, 1) * mpmath.expj(w1 * t) * ray
        if shift:
            return float(spec.eta * (inner + outer - mpmath.im(osc)))
        return float(4 * spec.eta * (inner + outer - mpmath.re(osc)))


def zero_t_b2(t, spec):
    """B2 at T = 0 for s = 1: 2 eta ln(1 + omega_c^2 t^2).

    From decoq: nothing.
    """
    return 2.0 * spec.eta * math.log1p((spec.omega_c * t) ** 2)


def single_pass_sums(t, bath, beta):
    """B2 and C of a discrete bath as one numpy sum over all modes at once.

    From decoq: nothing.
    """
    w, g2 = bath
    with np.errstate(over="ignore"):
        b2 = np.sum(8.0 * g2 / w**2 * np.sin(0.5 * w * t) ** 2 / np.tanh(0.5 * beta * w))
    x = w * t
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.0)
    series = (xs**3 / 6.0) * (1.0 - xs**2 / 20.0 + xs**4 / 840.0 - xs**6 / 60480.0)
    c = np.sum(g2 / w**2 * np.where(small, series, x - np.sin(x)))
    return float(b2), float(c)


def mpmath_modes_b2(t, bath, beta):
    """B2 = 8 sum_k g_k^2/w_k^2 sin^2(w_k t/2) coth(beta w_k/2) of a discrete bath, at 40 digits.

    From decoq: nothing.
    """
    with mpmath.workdps(40):
        t, beta = mpmath.mpf(t), mpmath.mpf(beta)
        total = 0
        for w, g2 in zip(bath.omegas, bath.g_sq):
            w, g2 = mpmath.mpf(w), mpmath.mpf(g2)
            total += 8 * g2 / w**2 * mpmath.sin(w * t / 2) ** 2 * mpmath.coth(beta * w / 2)
        return float(total)


def mpmath_midpoint_weights(spec, n_modes, omega_max):
    """g_k^2 = J(w_k) dw of the midpoint rule, at exact w_k = (k - 1/2) dw, dw = omega_max/n_modes.

    J(w) = eta w^s exp(-w/omega_c), at 40 digits; a list of doubles, k = 1..n_modes.

    From decoq: nothing.
    """
    with mpmath.workdps(40):
        dw = mpmath.mpf(omega_max) / n_modes
        w = [(k - mpmath.mpf(0.5)) * dw for k in range(1, n_modes + 1)]
        return [float(spec.eta * v ** mpmath.mpf(spec.s) * mpmath.exp(-v / spec.omega_c) * dw)
                for v in w]


def mpmath_root(threshold, spec, t_star, t_top):
    """The double where B2 from mpmath_b2 reaches L = -log1p(-2 threshold), near t_star.

    B2 must rise on (0, t_top].  A bracket about t_star widens until it
    holds L, and is bisected to adjacent doubles.

    From decoq: nothing.
    """
    with mpmath.workdps(30):
        target = float(-mpmath.log1p(-2 * mpmath.mpf(threshold)))
    width = 1e-6
    while not (mpmath_b2(lo := t_star / (1.0 + width), spec) < target
               <= mpmath_b2(hi := min(t_star * (1.0 + width), t_top), spec)):
        width *= 1e3
    while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
        if mpmath_b2(mid, spec) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------- relaxation


def mpmath_relaxation(spec, e_j, threshold):
    """Gamma_down and tau_M of the golden rule at E_J, at 30 digits.

    From decoq: nothing.
    """
    with mpmath.workdps(30):
        e_j, thr = mpmath.mpf(e_j), mpmath.mpf(threshold)
        j = spec.eta * e_j ** mpmath.mpf(spec.s) * mpmath.exp(-e_j / mpmath.mpf(spec.omega_c))
        n = 0 if math.isinf(spec.beta) else 1 / mpmath.expm1(mpmath.mpf(spec.beta) * e_j)
        rate, rate_1 = 2 * mpmath.pi * j * (1 + n), 2 * mpmath.pi * j * (1 + 2 * n)
        return float(rate), float(-mpmath.log1p(-thr * rate_1 / rate) / rate_1)


def mpmath_born_deviation(t, spec, e_j):
    """The excited state's deviation to first order in eta, in its omega form, at 15 digits.

    D_e(t) = int dw J(w) [(1 + n(w)) F_t(w - E_J) + n(w) F_t(w + E_J)],
    F_t(x) = 4 sin^2(x t/2)/x^2.  Up to w1 = E_J + 2 pi/t the integrand is
    integrated as written; past it F_t = 2 (1 - cos x t)/x^2, and the
    oscillating part is taken on the vertical ray w1 + i u, where it decays
    like exp(-u t): its factor J n/x^2 has no pole with Re w >= w1.

    From decoq: nothing.
    """
    with mpmath.workdps(15):
        eta, wc, e_j, t = (mpmath.mpf(v) for v in (spec.eta, spec.omega_c, e_j, t))
        beta = mpmath.mpf(spec.beta)

        def weights(w):  # J(w) (1 + n(w)) and J(w) n(w)
            j = eta * w**spec.s * mpmath.exp(-w / wc)
            n = 1 / mpmath.expm1(beta * w)
            return j * (1 + n), j * n

        def head(w):
            up, down = weights(w)
            x1, x2 = w - e_j, w + e_j
            f1 = t**2 if x1 == 0 else 4 * mpmath.sin(x1 * t / 2) ** 2 / x1**2
            return up * f1 + down * 4 * mpmath.sin(x2 * t / 2) ** 2 / x2**2

        def poles(w):
            up, down = weights(w)
            return up / (w - e_j) ** 2, down / (w + e_j) ** 2

        def ray(u):
            w = mpmath.mpc(0, u) + w1
            g1, g2 = poles(w)
            osc = g1 * mpmath.expj((w1 - e_j) * t) + g2 * mpmath.expj((w1 + e_j) * t)
            return osc * mpmath.exp(-u * t) * 1j

        period = 2 * mpmath.pi / t
        w1 = e_j + period
        below = [e_j - k * period for k in range(int(e_j / period) + 1)]
        inner = mpmath.quad(head, [0] + sorted(w for w in below if w > 0) + [w1])
        smooth = mpmath.quad(lambda w: 2 * sum(poles(w)), [w1, max(w1, wc), max(w1, 8 * wc),
                                                          mpmath.inf])
        osc = mpmath.quad(ray, [0, 2 / t, 16 / t, mpmath.inf])
        return float(inner + smooth - 2 * mpmath.re(osc))


# ---------------------------------------------------------------- the oracle

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# the eigenbasis convention: the columns are phi_0 and phi_1 in the charge basis
EIGENSTATES = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)


def build_hamiltonians(system):
    """(H_sys, H_ib) on the full composite space, the dense reference of the maps.

    H_sys = -E_J/2 sigma_x x 1, and H_ib = sigma_z x C + 1 x E, where mode k
    puts its omega_k n on E's diagonal and its g_k sqrt(n) on C's first
    off-diagonals, each a Kronecker product of identities and one factor;
    its sigma_z = -1 block comes from -C and not from the parity the maps
    rest on.

    From decoq: nothing; H's definition is the oracle's.
    """
    levels = [m.n_fock for m in system.modes]

    def on_mode(k, op):
        factors = [op if j == k else np.eye(n) for j, n in enumerate(levels)]
        return functools.reduce(np.kron, factors)

    energy = coupling = 0.0
    for k, m in enumerate(system.modes):
        root = np.sqrt(np.arange(1.0, m.n_fock))
        energy = energy + on_mode(k, np.diag(m.omega * np.arange(m.n_fock)))
        coupling = coupling + on_mode(k, m.g * (np.diag(root, 1) + np.diag(root, -1)))
    h_sys = np.kron(-0.5 * system.e_j * SIGMA_X, np.eye(len(energy)))
    h_ib = np.kron(np.diag([1.0, -1.0]), coupling) + np.kron(np.eye(2), energy)
    return h_sys, h_ib


def thermal_bath_state(modes, beta):
    """Thermal state of the bath on the modes' n_fock levels: diagonal, a Kronecker product.

    From decoq: nothing.
    """
    def weights(m):
        p = np.array([1.0] + [math.exp(-beta * m.omega * k) for k in range(1, m.n_fock)])
        return p / p.sum()

    return np.diag(functools.reduce(np.kron, map(weights, modes)))


def held_levels(mode, beta):
    """The levels the oracle holds a mode at, from the rule in its docstring.

    From decoq: the tolerance constant TRUNCATION_WEIGHT_TOL.
    """
    need = math.log(1.0 / TRUNCATION_WEIGHT_TOL) / (beta * mode.omega)
    return max(mode.n_fock, 1 + math.ceil(need))


def _expm_herm(h, t):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def dense_reference(system, state, beta, t, split):
    """Reduced state by full-space propagation and partial trace, on the held levels.

    split=False propagates with H_sys + H_ib, split=True with
    A(t/2) exp(-i H_ib t) A(t/2), A(t/2) = exp(i E_J t sigma_x/4) on the
    qubit; the result is in the input basis.

    From decoq: the QubitState record and the COMPUTATIONAL tag, and
    TRUNCATION_WEIGHT_TOL through held_levels.
    """
    system = system._replace(modes=[m._replace(n_fock=held_levels(m, beta)) for m in system.modes])
    h_sys, h_ib = build_hamiltonians(system)
    nb = len(h_sys) // 2
    if split:
        a_half = np.kron(_expm_herm(-0.5 * system.e_j * SIGMA_X, 0.5 * t), np.eye(nb))
        u = a_half @ _expm_herm(h_ib, t) @ a_half
    else:
        u = _expm_herm(h_sys + h_ib, t)
    to_charge = np.eye(2) if state.basis == COMPUTATIONAL else EIGENSTATES
    rho0 = np.kron(to_charge @ state.rho @ to_charge.T, thermal_bath_state(system.modes, beta))
    full = (u @ rho0 @ u.conj().T).reshape(2, nb, 2, nb)
    return QubitState(to_charge.T @ np.einsum("aibi->ab", full) @ to_charge, state.basis).rho


# ---------------------------------------------------------------- states


def reference_verdict(m: np.ndarray):
    """The check that rejects m as the numpy state record did, or None if it accepted it.

    From decoq: the tolerance constants HERMITICITY_TOL, TRACE_TOL and POSITIVITY_TOL.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            return "hermitian"
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            return "trace"
        if np.min(np.linalg.eigvalsh(m)) < POSITIVITY_TOL:
            return "positive"
    return None


CHI = (1, -1)


def influence_sum_reference(state, dephasing, shift, t, e_j) -> np.ndarray:
    """The influence-functional sum enumerated over its 64 index tuples.

    Its factors are exp(-B2 (chi - chi')^2/4 - i C (chi^2 - chi'^2)).

    From decoq: nothing.
    """
    rho = state.rho
    # overlap[j, xi] = <phi_j | xi> between eigenstates and sigma_z eigenstates
    overlap = EIGENSTATES.T
    lam = (0.5 * e_j, -0.5 * e_j)
    F = [
        [cmath.exp(-dephasing * (chi - chi_) ** 2 / 4 - 1j * shift * (chi**2 - chi_**2))
         for chi_ in CHI]
        for chi in CHI
    ]
    out = np.zeros((2, 2), dtype=complex)
    # the deltas of the free factors set alpha = m, beta = p, mu = q, nu = n
    for m, n, xi, p, q, sg in product(range(2), repeat=6):
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
    return 0.5 * (out + out.conj().T)


def charge_basis_factor(rho, out, t, e_j) -> np.ndarray:
    """The entrywise factor a split map put on the charge-basis half-evolved state.

    Undoes the free half-steps h = exp(-i t lambda/2) on both sides: the
    half-evolved state is O^T (h rho h^*) O before the factor and
    O^T (h^* out h) O after it, with O[j, xi] = <phi_j | xi>; the factor is
    their entrywise ratio, rows and columns in the order of CHI.

    From decoq: nothing.
    """
    overlap = EIGENSTATES.T
    h = np.exp(-0.5j * t * np.array([[0.5 * e_j], [-0.5 * e_j]]))  # a column
    before = overlap.T @ (h * np.asarray(rho) * h.conj().T) @ overlap
    after = overlap.T @ (h.conj() * np.asarray(out) * h.T) @ overlap
    return after / before


def bloch_scan_reference(dephasing, t, e_j):
    """The grid search on a meshgrid of theta and phi.

    From decoq: the grid size BLOCH_GRID.
    """
    theta = np.linspace(0.0, math.pi, BLOCH_GRID)
    phi = np.linspace(0.0, 2.0 * math.pi, BLOCH_GRID, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    decay = -np.expm1(-dephasing)
    val = 0.5 * decay * np.sqrt(
        np.cos(th) ** 2 + np.sin(th) ** 2 * np.sin(ph + 0.5 * t * e_j) ** 2
    )
    i, j = divmod(int(np.argmax(val)), BLOCH_GRID)
    return float(val[i, j]), float(theta[i]), float(phi[j])
