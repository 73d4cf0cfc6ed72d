"""Independent mpmath references for the benchmark's checked outputs.

Nothing here imports decoq: every reference value is computed from the
model's defining integrals or from closed forms derived from them.

Dephasing exponent, with J(w) = eta w^s exp(-w/omega_c):

    B2(t) = 8 int_0^inf dw J(w) w^-2 sin^2(w t/2) coth(beta w/2)

Expanding coth(x/2) = 1 + 2 sum_n exp(-n x) turns each term into an
elementary Laplace-type integral, which gives, with a = 1/(beta omega_c),
y = t/beta and z = 1 + a + i y,

    s = 1:  4 eta [ln(1 + omega_c^2 t^2)/2 + 2 ln Gamma(1+a) - 2 Re ln Gamma(z)]
    s = 2:  4 eta [omega_c x^2/(1 + x^2) + (2/beta) (Re psi(z) - psi(1+a))]
    s = 3:  4 eta [omega_c^2 (1 - Re 1/(1 - i x)^2) + (2/beta^2) (psi'(1+a) - Re psi'(z))]

where x = omega_c t.  The s = 1 form is the reference for s = 1 (at 30
digits); the direct integral below is the reference for s != 1 and spot
checks the s = 1 form.  The s = 2, 3 forms only predict where the root of
D(t) lies; the root itself is confirmed on the direct integral.
"""

import functools
from dataclasses import dataclass

import mpmath as mp

# decoq's documented unit convention (ueV per kelvin); the reference must
# turn a temperature into beta with the same constant as the program does
KB_UEV_PER_K = 86.17333

CLOSED_DPS = 30
DIRECT_DPS = 20
SCAN_DPS = 15


@dataclass(frozen=True)
class Bath:
    """Operating point as the CLI receives it: T in mK, omega_c in ueV."""

    eta: float
    omega_c: float
    temp_mk: float
    s: int = 1

    def beta(self):
        return 1 / (mp.mpf(KB_UEV_PER_K) * mp.mpf(self.temp_mk) / 1000)


def _b2_closed(t, bath: Bath):
    t = mp.mpf(t)
    if t == 0:
        return mp.mpf(0)
    eta, wc, beta = mp.mpf(bath.eta), mp.mpf(bath.omega_c), bath.beta()
    a = 1 / (beta * wc)
    y = t / beta
    z = mp.mpc(1 + a, y)
    x = wc * t
    if bath.s == 1:
        thermal = 2 * mp.loggamma(1 + a) - 2 * mp.re(mp.loggamma(z))
        return 4 * eta * (mp.log1p(x * x) / 2 + thermal)
    if bath.s == 2:
        thermal = (2 / beta) * (mp.re(mp.digamma(z)) - mp.digamma(1 + a))
        return 4 * eta * (wc * x * x / (1 + x * x) + thermal)
    if bath.s == 3:
        thermal = (2 / beta**2) * (mp.psi(1, 1 + a) - mp.re(mp.psi(1, z)))
        return 4 * eta * (wc * wc * (1 - mp.re(1 / mp.mpc(1, -x) ** 2)) + thermal)
    raise ValueError(f"no closed form for s = {bath.s}")


def b2_closed(t, bath: Bath, dps: int = CLOSED_DPS) -> float:
    """Closed-form B2(t) for s in {1, 2, 3}, evaluated at dps digits."""
    with mp.workdps(dps):
        return float(_b2_closed(t, bath))


def b2_direct(t, bath: Bath, dps: int = DIRECT_DPS) -> float:
    """B2(t) by direct mpmath quadrature of its defining integral.

    [0, 2 pi/t] is integrated as written.  Beyond it the integrand is split
    as f(w) (1 - cos w t): f is integrated on the real line and the Fourier
    part on the vertical ray w1 + i u, where exp(i w t) decays like
    exp(-u t).  f has no singularity with Re w > 0, so the rotation is
    exact and no oscillation needs resolving.  B2 is linear in eta, so the
    integral is kept per unit eta and reused across couplings.
    """
    return bath.eta * _b2_direct_unit(float(t), bath.omega_c, bath.temp_mk, bath.s, dps)


@functools.lru_cache(maxsize=4096)
def _b2_direct_unit(t, omega_c, temp_mk, s, dps):
    with mp.workdps(dps):
        t = mp.mpf(t)
        if t == 0:
            return 0.0
        wc, beta = mp.mpf(omega_c), Bath(1.0, omega_c, temp_mk, s).beta()

        def f(w):
            return w ** (s - 2) * mp.exp(-w / wc) * mp.coth(beta * w / 2)

        w1 = 2 * mp.pi / t
        head = mp.quad(
            lambda w: 2 * f(w) * mp.sin(w * t / 2) ** 2,
            [0] + [wc * k for k in (1, 8) if wc * k < w1] + [w1],
        )
        smooth = mp.quad(f, [w1] + [w for w in (wc, 8 * wc) if w > w1] + [mp.inf])
        ray = mp.quad(lambda u: f(mp.mpc(w1, u)) * mp.exp(-u * t), [0, 2 / t, 16 / t, mp.inf])
        fourier = mp.re(mp.mpc(0, 1) * mp.expj(w1 * t) * ray)
        return float(4 * (head + smooth - fourier))


def b2(t, bath: Bath) -> float:
    """The reference B2(t): closed form for s = 1, direct integral otherwise."""
    return b2_closed(t, bath) if bath.s == 1 else b2_direct(t, bath)


def d_of_b2(b2_value) -> float:
    """Worst-case decoherence D = (1 - exp(-B2))/2."""
    return float(-mp.expm1(-mp.mpf(b2_value)) / 2)


def _bracket_first_crossing(d, threshold, t_max):
    """(lo, hi) with d(lo) < threshold <= d(hi) around the first crossing.

    Scans a geometric grid from 1e-12 t_max up to t_max; None if d stays
    below the threshold on every grid point.
    """
    lo = 0.0
    for k in range(96, -1, -1):
        hi = t_max * 10.0 ** (-k / 8.0)
        if d(hi) >= threshold:
            return lo, hi
        lo = hi
    return None


def tau_ld(threshold: float, bath: Bath, t_max: float):
    """Reference low-decoherence time: (tau, None), or (None, D(t_max)) if no crossing.

    The first crossing is bracketed on a 15-digit closed form and solved on
    the 30-digit one.  For s != 1 the direct integral at tau must then reach
    the threshold to 1e-9 relative, which pins tau far inside the 1e-4
    root-find tolerance.
    """
    with mp.workdps(SCAN_DPS):
        bracket = _bracket_first_crossing(
            lambda t: d_of_b2(_b2_closed(t, bath)), threshold, t_max
        )
    if bracket is None:
        d_end = d_of_b2(b2(t_max, bath))
        if d_end >= threshold:
            raise ArithmeticError(f"closed form and reference disagree on a crossing for {bath}")
        return None, d_end
    with mp.workdps(CLOSED_DPS):
        tau = float(mp.findroot(
            lambda t: -mp.expm1(-_b2_closed(t, bath)) / 2 - threshold,
            (mp.mpf(bracket[0]), mp.mpf(bracket[1])),
            solver="anderson",
        ))
    if bath.s != 1:
        d_tau = d_of_b2(b2_direct(tau, bath))
        if abs(d_tau / threshold - 1.0) > 1e-9:
            raise ArithmeticError(
                f"direct D(tau) = {d_tau!r} misses threshold {threshold!r} for {bath}"
            )
    return tau, None


def b2_modes(t, omegas, g_sq, temp_mk) -> float:
    """Discrete-mode B2 = 8 sum g_k^2/w_k^2 sin^2(w_k t/2) coth(beta w_k/2)."""
    with mp.workdps(CLOSED_DPS):
        beta = Bath(0.0, 1.0, temp_mk).beta()
        t = mp.mpf(t)
        total = mp.mpf(0)
        for w, g2 in zip(omegas, g_sq):
            w = mp.mpf(w)
            total += 8 * mp.mpf(g2) / w**2 * mp.sin(w * t / 2) ** 2 * mp.coth(beta * w / 2)
        return float(total)


def dephased_coherence(rho01, b2_value) -> complex:
    """rho_01(t) of a pure-dephasing qubit (E_J = 0) in the charge basis."""
    with mp.workdps(CLOSED_DPS):
        return complex(mp.mpc(rho01) * mp.exp(-mp.mpf(b2_value)))


def reduced_map(rho, b2_value, t, e_j):
    """Exact reduced state of the split step, in the qubit eigenbasis.

    rho_11 -> (rho_00 (1 - u) + rho_11 (1 + u))/2 and
    rho_10 -> (rho_01 (1 - u) + rho_10 exp(i t E_J) (1 + u))/2, u = exp(-B2).
    Returns the 2x2 matrix as nested lists of complex.
    """
    with mp.workdps(CLOSED_DPS):
        u = mp.exp(-mp.mpf(b2_value))
        ph = mp.expj(mp.mpf(t) * mp.mpf(e_j))
        r = [[mp.mpc(x) for x in row] for row in rho]
        r11 = (r[0][0] * (1 - u) + r[1][1] * (1 + u)) / 2
        r10 = (r[0][1] * (1 - u) + r[1][0] * ph * (1 + u)) / 2
        return [[complex(1 - r11), complex(mp.conj(r10))], [complex(r10), complex(r11)]]
