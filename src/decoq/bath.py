"""Thermal bosonic bath: spectral density and dephasing integrals.

The bath couples to the qubit through sigma_z, so only two quantities of the
influence functional survive:

    B2(t) = 8 * integral dw J(w) w^-2 sin^2(w t/2) coth(beta w/2)
    C(t)  =     integral dw J(w) w^-2 (w t - sin(w t))

with the power-law spectral density J(w) = eta * w^s * exp(-w/omega_c).
C multiplies chi^2 - chi'^2 = 0 for the coupling eigenvalues chi = +-1, so
it cancels from every qubit quantity: it is a library integral here, and
no command writes it.  Both are evaluated exactly for every s >= 1 and
any temperature, with nothing but the math module: C(t) in closed form,
B2(t) from the expansion coth(beta w/2) = 1 + 2 sum_n exp(-n beta w),
whose every term integrates to an elementary function (Leggett et al.,
RMP 59, 1 (1987); Palma, Suominen & Ekert, Proc. R. Soc. A 452, 567
(1996)).

Convention note: the exponential cutoff is the decaying form exp(-w/omega_c);
a growing exponential would make every moment of J divergent.
"""

import math
import sys
from collections import namedtuple

# thermal sum of B2: terms n < EM_N are added left to right (builtin sum()
# compensates from Python 3.12 on, so B2 would differ there), the rest by
# Euler-Maclaurin at q = EM_N + a.  The summand is analytic at distance >= q
# from the real axis, so the Bernoulli corrections B_2j/(2j)! below shrink
# like (2 pi q)^-2j; with seven of them B2 meets the tolerance and region
# of README's `b_squared` row ("Claims").
EM_N = 20
EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), 1)
)
# below this (nu + 2) * omega_c t the closed form of C(t) cancels; its odd
# power series, whose ratio is at most ((nu + 2) omega_c t / 2)^2, replaces it
C_SERIES_U = 0.5
# below this beta omega_c (a = 1/(beta omega_c) above 1e16, or past the
# largest double), B2 is its classical limit: coth(z) = 1/z + z/3 - ...
# leaves B2/(4 eta) = (2/beta) omega_c^(nu-1) G_(nu-1)(omega_c t) up to a
# relative O(1/a^2)
CLASSICAL_BETA_OMEGA_C = 1e-16


def _record(typename: str, field_names, defaults=None):
    """namedtuple base of an immutable record that validates in its subclass's __new__.

    _make, and with it _replace, goes through that __new__, so a replaced
    field is checked as a constructed one is.
    """
    base = namedtuple(typename, field_names, defaults=defaults)
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


def _g(mu: float, r: float) -> float:
    """G_mu(r) = Gamma(mu) [1 - Re (1 - i r)^-mu] for mu >= -1, with its limits at mu = 0 and -1.

    p^-mu G_mu(t/p) = int_0^inf dw w^(mu-1) exp(-p w) (1 - cos w t).  With
    L = log(1 + r^2)/2, log r from r = 1e150 where r*r nears overflow, and
    th = atan r, G_0 = L.  From mu = -1/2 up, G is two terms: non-negative
    for mu > 0, and for mu < 0 of opposite sign but neither above twice
    their sum.  Below -1/2 those would cancel to a part in 1/nu, nu = mu + 1;
    the form -Gamma(mu) Re[(1 - i r) expm1(-nu log(1 - i r))] keeps every
    term of order nu and tends to G_-1 = r th - L.  The kernel's mu there is
    s - 2, so mu + 1 gives back s - 1 exactly.
    """
    half_l = 0.5 * math.log1p(r * r) if r < 1e150 else math.log(r)
    if mu == 0.0:
        return half_l
    if mu >= -0.5:
        return math.gamma(mu) * (
            -math.expm1(-mu * half_l)
            + 2.0 * math.exp(-mu * half_l) * math.sin(0.5 * mu * math.atan(r)) ** 2
        )
    nu = mu + 1.0
    th = math.atan(r)
    if nu == 0.0:
        return r * th - half_l
    return math.gamma(mu) * (
        -math.expm1(-nu * half_l) * math.cos(nu * th)
        + 2.0 * math.sin(0.5 * nu * th) ** 2
        - r * math.exp(-nu * half_l) * math.sin(nu * th)
    )


def _thermal_sum(nu: float, a: float, y: float) -> float:
    """sum_{n >= 1} m^-nu G_nu(y/m) with m = n + a."""
    total = 0.0
    for n in range(1, EM_N):
        total += (n + a) ** -nu * _g(nu, y / (n + a))
    q = EM_N + a
    r = y / q
    total += q ** (1.0 - nu) * _g(nu - 1.0, r) + 0.5 * q**-nu * _g(nu, r)
    for j, c in enumerate(EM_COEFFS, 1):
        total += c * q ** (1.0 - nu - 2 * j) * _g(nu + 2 * j - 1, r)
    return total


def _hurwitz(p: float, z: complex) -> complex:
    """sum_{n >= 1} (n + z)^-p for p > 1 and Re z > -1, summed as _thermal_sum is."""
    q = EM_N + z
    total = 0.0
    for n in range(1, EM_N):
        total += (n + z) ** -p
    total += q ** (1.0 - p) / (p - 1.0)
    total += 0.5 * q**-p
    rising = p  # the rising factorial (p)_(2j-1) of the (2j-1)-th derivative of x^-p
    for j, c in enumerate(EM_COEFFS, 1):
        total += c * rising * q ** (1.0 - p - 2 * j)
        rising *= (p + 2 * j - 1) * (p + 2 * j)
    return total


def _b2_peak_bound(spec: BathSpec) -> float:
    """(1 + cos^s(pi/s)) B2(inf), at least B2(t) at every t for s > 2 (README); or inf.

    B2(inf) = 4 eta Gamma(nu) [omega_c^nu + 2 beta^-nu sum_{n>=1} (n + a)^-nu].  A factor
    that overflows or is not a normal double, whose round-off is then not relative, gives inf.
    """
    nu = spec.s - 1.0
    try:
        factors = [spec.omega_c**nu, math.gamma(nu)]
        if math.isfinite(spec.beta):
            factors += [spec.beta**-nu, _hurwitz(nu, 1.0 / (spec.beta * spec.omega_c))]
    except (OverflowError, ZeroDivisionError):
        return math.inf
    if not all(sys.float_info.min <= f < math.inf for f in factors):
        return math.inf
    vacuum, gamma, *thermal = factors
    total = vacuum + 2.0 * thermal[0] * thermal[1] if thermal else vacuum
    return 4.0 * gamma * total * (1.0 + math.cos(math.pi / spec.s) ** spec.s) * spec.eta


def _classical(nu: float, beta: float, omega_c: float, t: float) -> float:
    """(2/beta) omega_c^(nu-1) G_(nu-1)(x) at x = omega_c t, for t > 0.

    As (2/beta) omega_c^(nu+1) t^2 h(x) with h = G_(nu-1)(x)/x^2, which is
    Gamma(nu+1)/2 to a relative (nu+1)(nu+2) x^2/12 below x = 1e-9, where
    x^2 may underflow.  It is formed as the exp of a sum of logs, so no factor
    over- or underflows on its own; that costs a relative error that grows with
    the logs: measured against mpmath, up to 6e-14 for beta omega_c in
    [1e-60, 1e-16], 1e-13 in [1e-200, 1e-60] and 2.7e-13 below.
    """
    x = omega_c * t
    if x < 1e-9:
        log_h = math.log(0.5 * math.gamma(nu + 1.0))
    else:
        log_h = math.log(_g(nu - 1.0, x)) - 2.0 * math.log(x)
    return math.exp(
        math.log(2.0) - math.log(beta) + (nu + 1.0) * math.log(omega_c) + 2.0 * math.log(t) + log_h
    )


def _not_a_double(what: str, t: float, spec: BathSpec) -> ValueError:
    return ValueError(f"{what} in double precision at s={spec.s}, omega_c={spec.omega_c}, t={t}")


def _finite(value: float, name: str, t: float, spec: BathSpec) -> float:
    if not math.isfinite(value):
        raise _not_a_double(f"{name} is not finite", t, spec)
    return value


def _validate_time(t: float):
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def _validate_beta(beta: float):
    if math.isnan(beta) or beta <= 0.0:
        raise ValueError(f"beta must be > 0 (inf allowed), got {beta}")


def _check_phase(name: str, frequency: float, t: float):
    """The phase frequency * t that a map, mode sum or propagator turns must be a double."""
    if not math.isfinite(frequency * t):
        raise ValueError(f"{name}*t is not finite in double precision at {name}={frequency}, t={t}")


def _validate_dephasing(b2: float):
    if not b2 >= 0.0:  # rejects nan too; inf is full dephasing
        raise ValueError(f"dephasing exponent must be >= 0, got {b2}")


def dephasing_exponent(t: float, spec: BathSpec) -> float:
    """Continuum dephasing exponent B2(t).

    B2(t) = 8 * int_0^inf dw J(w)/w^2 * sin^2(w t/2) * coth(beta w/2)

    With nu = s - 1, x = omega_c t, a = 1/(beta omega_c) and y = t/beta,
    coth = 1 + 2 sum_n exp(-n beta w) integrates term by term to

    B2 = 4 eta [omega_c^nu G_nu(x) + 2 beta^-nu sum_{n>=1} (n+a)^-nu G_nu(y/(n+a))],

    which at s = 1 is 4 eta [ln(1 + x^2)/2 + 2 lnG(1+a) - 2 Re lnG(1+a+iy)]
    and at beta = inf keeps only its first term.  Where a > 1e16 (see
    CLASSICAL_BETA_OMEGA_C), B2 is 8 eta/beta omega_c^(nu-1) G_(nu-1)(x),
    which tends to 0 with omega_c.  B2 is formed last, as 4 eta times a
    total free of eta, so it is the same double as 4.0 * eta * B2 at
    eta = 1/4.  Raises ValueError if B2 is not finite in double precision, or
    if its thermal sum underflows before 2 beta^-nu scales it.
    """
    _validate_time(t)
    if t == 0.0 or spec.eta == 0.0:
        return 0.0
    nu = spec.s - 1.0
    try:
        if spec.beta * spec.omega_c < CLASSICAL_BETA_OMEGA_C:
            total = _classical(nu, spec.beta, spec.omega_c, t)
        else:
            total = spec.omega_c**nu * _g(nu, spec.omega_c * t)
            if math.isfinite(spec.beta):
                a = 1.0 / (spec.beta * spec.omega_c)
                # the thermal sum's largest power factors, its first term's and its tail's: where
                # neither is a normal double (s > 20, a from about 10^(308/nu) to 1e16) the sum
                # has lost its digits before 2 beta^-nu could bring it back
                if max((1.0 + a) ** -nu, (EM_N + a) ** (1.0 - nu)) < sys.float_info.min:
                    raise _not_a_double("B2's thermal sum underflows", t, spec)
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
