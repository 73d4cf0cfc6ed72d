"""Thermal bosonic bath: spectral density and dephasing integrals.

The bath couples to the qubit through sigma_z, so only two quantities of the
influence functional survive:

    B2(t) = 8 * integral dw J(w) w^-2 sin^2(w t/2) coth(beta w/2)
    C(t)  =     integral dw J(w) w^-2 (w t - sin(w t))

with the power-law spectral density J(w) = eta * w^s * exp(-w/omega_c).
Both are evaluated exactly for every s >= 1 and any temperature, with
nothing but the math module: C(t) in closed form, B2(t) from the expansion
coth(beta w/2) = 1 + 2 sum_n exp(-n beta w), whose every term integrates to
an elementary function (Leggett et al., RMP 59, 1 (1987); Palma, Suominen &
Ekert, Proc. R. Soc. A 452, 567 (1996)).

Convention note: the exponential cutoff is the decaying form exp(-w/omega_c);
a growing exponential would make every moment of J divergent.
"""

from __future__ import annotations

import math
from collections import namedtuple

# thermal sum of B2: terms n < EM_N are summed directly, the rest by
# Euler-Maclaurin at q = EM_N + a.  The summand is analytic at distance >= q
# from the real axis, so the Bernoulli corrections B_2j/(2j)! below shrink
# like (2 pi q)^-2j; seven of them leave B2 exact to double precision at
# any t (checked against mpmath for s up to 10).
EM_N = 20
EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), 1)
)
# below this (nu + 2) * omega_c t the closed form of C(t) cancels; its odd
# power series, whose ratio is at most ((nu + 2) omega_c t / 2)^2, replaces it
C_SERIES_U = 0.5


def _record(typename: str, field_names: str):
    """namedtuple base of an immutable record that validates in its subclass's __new__.

    _make, and with it _replace, goes through that __new__, so a replaced
    field is checked as a constructed one is.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class BathSpec(_record("BathSpec", "eta omega_c beta s")):
    """Ohmic-family bath: J(w) = eta * w**s * exp(-w/omega_c), beta = 1/kT.

    beta may be math.inf for a zero-temperature bath.  Sub-Ohmic exponents
    (s < 1) are rejected because the low-frequency limit implemented here is
    derived for s >= 1 only.
    """

    __slots__ = ()

    def __new__(cls, eta: float, omega_c: float, beta: float, s: float = 1.0):
        if not math.isfinite(eta) or eta < 0.0:
            raise ValueError(f"eta must be finite and >= 0, got {eta}")
        if not math.isfinite(omega_c) or omega_c <= 0.0:
            raise ValueError(f"omega_c must be finite and > 0, got {omega_c}")
        _validate_beta(beta)
        if not math.isfinite(s) or s < 1.0:
            raise ValueError(
                f"s must be finite and >= 1, got {s}: the low-frequency limit "
                "of the dephasing integrand is implemented for s >= 1 only"
            )
        return super().__new__(cls, eta, omega_c, beta, s)


# ---------------------------------------------------------------------------
# continuum integrals


def _half_log1p_sq(r: float) -> float:
    """log(1 + r^2)/2; from r = 1e150, where r*r nears overflow, it is log(r) to the last bit."""
    return 0.5 * math.log1p(r * r) if r < 1e150 else math.log(r)


def _g(mu: float, r: float) -> float:
    """G_mu(r) = Gamma(mu) [1 - Re (1 - i r)^-mu], with G_0(r) = log(1 + r^2)/2.

    p^-mu G_mu(t/p) = int_0^inf dw w^(mu-1) exp(-p w) (1 - cos w t).  The
    two terms below are non-negative for mu > 0; for -1/2 <= mu < 0 they
    differ in sign, but neither exceeds twice their sum.
    """
    half_l = _half_log1p_sq(r)
    if mu == 0.0:
        return half_l
    return math.gamma(mu) * (
        -math.expm1(-mu * half_l)
        + 2.0 * math.exp(-mu * half_l) * math.sin(0.5 * mu * math.atan(r)) ** 2
    )


def _g_below(nu: float, r: float) -> float:
    """G_(nu-1)(r), the Euler-Maclaurin integral of the thermal sum.

    For nu < 1/2 the two terms of _g would cancel to a part in 1/nu; the
    form -Gamma(nu-1) Re[(1 - i r) expm1(-nu log(1 - i r))] keeps every
    term of order nu and tends to r atan(r) - log(1 + r^2)/2 at nu = 0.
    """
    if nu >= 0.5:
        return _g(nu - 1.0, r)
    half_l = _half_log1p_sq(r)
    th = math.atan(r)
    if nu == 0.0:
        return r * th - half_l
    return math.gamma(nu - 1.0) * (
        -math.expm1(-nu * half_l) * math.cos(nu * th)
        + 2.0 * math.sin(0.5 * nu * th) ** 2
        - r * math.exp(-nu * half_l) * math.sin(nu * th)
    )


def _thermal_sum(nu: float, a: float, y: float) -> float:
    """sum_{n >= 1} m^-nu G_nu(y/m) with m = n + a."""
    total = sum((n + a) ** -nu * _g(nu, y / (n + a)) for n in range(1, EM_N))
    q = EM_N + a
    r = y / q
    total += q ** (1.0 - nu) * _g_below(nu, r) + 0.5 * q**-nu * _g(nu, r)
    for j, c in enumerate(EM_COEFFS, 1):
        total += c * q ** (1.0 - nu - 2 * j) * _g(nu + 2 * j - 1, r)
    return total


def _finite(value: float, name: str, t: float, spec: BathSpec) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} is not finite in double precision at s={spec.s}, "
            f"omega_c={spec.omega_c}, t={t}"
        )
    return value


def _validate_time(t: float):
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def _validate_beta(beta: float):
    if math.isnan(beta) or beta <= 0.0:
        raise ValueError(f"beta must be > 0 (inf allowed), got {beta}")


def dephasing_exponent(t: float, spec: BathSpec) -> float:
    """Continuum dephasing exponent B2(t).

    B2(t) = 8 * int_0^inf dw J(w)/w^2 * sin^2(w t/2) * coth(beta w/2)

    With nu = s - 1, x = omega_c t, a = 1/(beta omega_c) and y = t/beta,
    coth = 1 + 2 sum_n exp(-n beta w) integrates term by term to

    B2 = 4 eta [omega_c^nu G_nu(x) + 2 beta^-nu sum_{n>=1} (n+a)^-nu G_nu(y/(n+a))],

    which at s = 1 is 4 eta [ln(1 + x^2)/2 + 2 lnG(1+a) - 2 Re lnG(1+a+iy)]
    and at beta = inf keeps only its first term.  Raises ValueError if B2
    is not finite in double precision.
    """
    _validate_time(t)
    if t == 0.0 or spec.eta == 0.0:
        return 0.0
    nu = spec.s - 1.0
    try:
        total = spec.omega_c**nu * _g(nu, spec.omega_c * t)
        if math.isfinite(spec.beta):
            a = 1.0 / (spec.beta * spec.omega_c)
            total += 2.0 * spec.beta**-nu * _thermal_sum(nu, a, t / spec.beta)
        b2 = 4.0 * spec.eta * total
    except OverflowError:
        b2 = math.inf
    return _finite(b2, "B2", t, spec)


def dephasing_exponent_zero_t(t: float, spec: BathSpec) -> float:
    """B2(t) of the same bath at T = 0; 2 eta ln(1 + omega_c^2 t^2) for s = 1.

    The beta = inf case of dephasing_exponent, kept by name because the
    benchmark's reference tests (perfbench/tests) import it.
    """
    return dephasing_exponent(t, spec._replace(beta=math.inf))


def _c_unit(nu: float, x: float) -> float:
    """C(t) / (eta omega_c^nu) at x = omega_c t.

    Gamma(nu+1) x - Gamma(nu) (1+x^2)^(-nu/2) sin(nu atan x), which is
    x - atan x at nu = 0; for small (nu + 2) x its odd-power series
    sum_{j>=1} (-1)^(j+1) Gamma(nu+2j+1)/(2j+1)! x^(2j+1).
    """
    if (nu + 2.0) * x < C_SERIES_U:
        x2 = x * x
        term = math.gamma(nu + 3.0) / 6.0 * x * x2
        total = 0.0
        j = 1
        while abs(term) > 1e-17 * abs(total):
            total += term
            term *= -(nu + 2 * j + 1) * (nu + 2 * j + 2) / ((2 * j + 2) * (2 * j + 3)) * x2
            j += 1
        return total
    if nu == 0.0:
        return x - math.atan(x)
    return math.gamma(nu + 1.0) * x - math.gamma(nu) * (1.0 + x * x) ** (-0.5 * nu) * math.sin(
        nu * math.atan(x)
    )


def phase_shift(t: float, spec: BathSpec) -> float:
    """Bath-induced phase-shift integral C(t).

    C(t) = int_0^inf dw J(w)/w^2 * (w t - sin(w t))
         = eta omega_c^nu [Gamma(nu+1) x - Gamma(nu) (1+x^2)^(-nu/2) sin(nu atan x)]

    with nu = s - 1 and x = omega_c t; eta (x - atan x) at s = 1.  Raises
    ValueError if C is not finite in double precision.
    """
    _validate_time(t)
    if t == 0.0 or spec.eta == 0.0:
        return 0.0
    nu = spec.s - 1.0
    try:
        c = spec.eta * spec.omega_c**nu * _c_unit(nu, spec.omega_c * t)
    except OverflowError:
        c = math.inf
    return _finite(c, "C", t, spec)


def influence_exponent(chi_fwd: int, chi_bwd: int, dephasing: float, shift: float) -> complex:
    """Exponent of the two-branch influence factor.

    For forward/backward dephasing-coupling eigenvalues chi in {+1, -1}:

        -B2 (chi_fwd - chi_bwd)^2 / 4 - i C (chi_fwd^2 - chi_bwd^2)

    Both chi^2 terms equal one, so the imaginary part vanishes identically;
    it is computed literally here so tests can assert that cancellation.
    """
    for chi in (chi_fwd, chi_bwd):
        if chi not in (1, -1):
            raise ValueError(f"branch eigenvalues must be +1 or -1, got {chi}")
    if not dephasing >= 0.0:  # rejects nan too
        raise ValueError(f"dephasing exponent must be >= 0, got {dephasing}")
    diff = chi_fwd - chi_bwd
    return complex(-dephasing * diff * diff / 4.0, -shift * (chi_fwd**2 - chi_bwd**2))

