"""Thermal bosonic bath: spectral density, dephasing integrals, discretization.

The bath couples to the qubit through sigma_z, so only two quantities of the
influence functional survive:

    B2(t) = 8 * integral dw J(w) w^-2 sin^2(w t/2) coth(beta w/2)
    C(t)  =     integral dw J(w) w^-2 (w t - sin(w t))

with the power-law spectral density J(w) = eta * w^s * exp(-w/omega_c).
For s = 1 both have closed forms at any temperature; other exponents use
adaptive quadrature, and scipy.integrate is imported only when it runs.

Convention note: the exponential cutoff is the decaying form exp(-w/omega_c);
a growing exponential would make every moment of J divergent.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaincc, loggamma, zeta

# quadrature truncation: J(w) is down by e^-60 at the domain edge
DOMAIN_EFOLDS = 60.0
# beyond this many oscillation periods the integral is split into a smooth
# part plus an oscillatory-weighted part instead of per-period breakpoints
MAX_BREAKPOINTS = 600
# Ohmic B2: below y = SERIES_Y * (1 + a) the thermal log-gamma difference is
# summed as a y^2 series; its ratio (y/(1+a))^2 <= 1e-2 makes SERIES_TERMS
# terms exact to double precision
SERIES_Y = 0.1
SERIES_TERMS = 8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class BathSpec:
    """Ohmic-family bath: J(w) = eta * w**s * exp(-w/omega_c), beta = 1/kT.

    beta may be math.inf for a zero-temperature bath.  Sub-Ohmic exponents
    (s < 1) are rejected because the low-frequency limit implemented here is
    derived for s >= 1 only.
    """

    eta: float
    omega_c: float
    beta: float
    s: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.eta) or self.eta < 0.0:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not math.isfinite(self.omega_c) or self.omega_c <= 0.0:
            raise ValueError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if math.isnan(self.beta) or self.beta <= 0.0:
            raise ValueError(f"beta must be > 0 (inf allowed), got {self.beta}")
        if not math.isfinite(self.s) or self.s < 1.0:
            raise ValueError(
                f"s must be finite and >= 1, got {self.s}: the low-frequency limit "
                "of the dephasing integrand is implemented for s >= 1 only"
            )


@dataclass(frozen=True)
class DiscreteBath:
    """Finite mode set {(omega_k, g_k^2)} with strictly increasing omega_k."""

    omegas: np.ndarray
    g_sq: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        g2 = np.asarray(self.g_sq, dtype=float)
        if w.ndim != 1 or g2.shape != w.shape:
            raise ValueError("omegas and g_sq must be 1-d arrays of equal length")
        if w.size == 0:
            raise ValueError("a discrete bath needs at least one mode")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(g2)):
            raise ValueError("mode parameters must be finite")
        if np.any(w <= 0.0):
            raise ValueError("mode frequencies must be positive")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("mode frequencies must be strictly increasing")
        if np.any(g2 < 0.0):
            raise ValueError("squared couplings must be non-negative")
        w.setflags(write=False)
        g2.setflags(write=False)
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "g_sq", g2)

    def __len__(self) -> int:
        return self.omegas.size


def coth(x):
    """Stable hyperbolic cotangent for x > 0 arrays; coth(inf) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    small = x < 1e-4
    mid = ~small & (x < 20.0)
    xs = x[small]
    out[small] = 1.0 / xs + xs / 3.0 - xs**3 / 45.0
    out[mid] = 1.0 / np.tanh(x[mid])
    return out if out.ndim else float(out)


def _coth_scalar(x: float) -> float:
    if x >= 20.0:
        return 1.0
    if x < 1e-4:
        return 1.0 / x + x / 3.0 - x**3 / 45.0
    return 1.0 / math.tanh(x)


def _x_minus_sin_series(x):
    x2 = x * x
    return (x * x2 / 6.0) * (1.0 - x2 / 20.0 + x2 * x2 / 840.0 - x2**3 / 60480.0)


def _x_minus_sin(x):
    """x - sin(x), series-protected against cancellation for small x.

    A float stays on math: the C(t) integrand calls this once per point.
    """
    if isinstance(x, float):
        return _x_minus_sin_series(x) if abs(x) < 0.1 else x - math.sin(x)
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) < 0.1, _x_minus_sin_series(x), x - np.sin(x))
    return out if out.ndim else float(out)


def _x_minus_atan(x):
    """x - arctan(x), series-protected for small x."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = (x * x2) * (1.0 / 3.0 - x2 / 5.0 + x2 * x2 / 7.0 - x2**3 / 9.0)
    out = np.where(np.abs(x) < 0.05, series, x - np.arctan(x))
    return out if out.ndim else float(out)


def spectral_density(omega, spec: BathSpec):
    """J(omega) = eta * omega**s * exp(-omega/omega_c); omega >= 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density is defined for omega >= 0")
    out = spec.eta * np.power(w, spec.s) * np.exp(-w / spec.omega_c)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# continuum integrals


def _b2_integrand(w: float, t: float, spec: BathSpec) -> float:
    if w <= 0.0:
        if spec.s == 1.0 and math.isfinite(spec.beta):
            return 4.0 * spec.eta * t * t / spec.beta  # removable w -> 0 limit
        return 0.0
    si = math.sin(0.5 * w * t)
    return (
        8.0
        * spec.eta
        * w ** (spec.s - 2.0)
        * math.exp(-w / spec.omega_c)
        * si
        * si
        * _coth_scalar(0.5 * spec.beta * w)
    )


def _b2_envelope(w: float, t: float, spec: BathSpec) -> float:
    # 8*sin^2(wt/2) = 4*(1 - cos(wt)); this is the non-oscillatory half
    return (
        4.0
        * spec.eta
        * w ** (spec.s - 2.0)
        * math.exp(-w / spec.omega_c)
        * _coth_scalar(0.5 * spec.beta * w)
    )


def _c_envelope(w: float, t: float, spec: BathSpec) -> float:
    return spec.eta * w ** (spec.s - 2.0) * math.exp(-w / spec.omega_c)


def _c_integrand(w: float, t: float, spec: BathSpec) -> float:
    if w <= 0.0:
        return 0.0
    return _c_envelope(w, t, spec) * _x_minus_sin(w * t)


def _c_linear(w: float, t: float, spec: BathSpec) -> float:
    # the w t half of w t - sin(w t), divided by t
    return spec.eta * w ** (spec.s - 1.0) * math.exp(-w / spec.omega_c)


def _tail_bound_b2(spec: BathSpec, omega_max: float, t: float) -> float:
    # integrand <= 8 eta w^(s-2) e^(-w/wc) coth(beta*Omega/2) beyond Omega
    c = _coth_scalar(0.5 * spec.beta * omega_max) if math.isfinite(spec.beta) else 1.0
    if spec.s <= 2.0:
        tail = omega_max ** (spec.s - 2.0) * spec.omega_c * math.exp(-DOMAIN_EFOLDS)
    else:
        p = spec.s - 1.0
        tail = spec.omega_c**p * gamma(p) * gammaincc(p, DOMAIN_EFOLDS)
    return 8.0 * spec.eta * c * tail


def _tail_bound_c(spec: BathSpec, omega_max: float, t: float) -> float:
    # integrand <= eta t w^(s-1) e^(-w/wc) beyond Omega
    p = spec.s
    return spec.eta * t * spec.omega_c**p * gamma(p) * gammaincc(p, DOMAIN_EFOLDS)


def _check_converged(name, value, err, rtol):
    if not err <= rtol * abs(value):
        raise QuadratureError(
            f"{name} quadrature did not converge: value={value:.6e}, "
            f"error estimate={err:.3e}, requested rtol={rtol:.1e}",
            value,
            err,
        )


def _validate_time(t: float):
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def _validate_rtol(rtol: float):
    if not 0.0 < rtol <= 1e-3:
        raise ValueError(f"rtol must lie in (0, 1e-3], got {rtol}")


def _oscillatory_integral(
    name, integrand, smooth, scale, envelope, weight, tail_bound, t, spec, rtol
):
    """int_0^inf integrand(w, t, spec) dw by adaptive quadrature.

    The domain is truncated where the cutoff has decayed by e^-60 and
    tail_bound(spec, omega_max, t) is folded into the error estimate.  Up to
    MAX_BREAKPOINTS oscillation periods every period boundary is a
    breakpoint.  Beyond that the first period is integrated as it is and the
    rest as scale * smooth - envelope * weight(w t), the last term by QUADPACK's
    oscillatory-weighted rule.  Raises QuadratureError if the combined error
    estimate exceeds rtol * value.
    """
    import scipy.integrate as sint

    _validate_time(t)
    _validate_rtol(rtol)
    if t == 0.0 or spec.eta == 0.0:
        return 0.0

    omega_max = DOMAIN_EFOLDS * spec.omega_c
    inner = rtol / 4.0
    n_osc = omega_max * t / (2.0 * math.pi)
    args = (t, spec)

    if n_osc <= MAX_BREAKPOINTS:
        pts = [2.0 * math.pi * k / t for k in range(1, int(n_osc) + 1)]
        pts = [p for p in pts if 0.0 < p < omega_max] or None
        limit = 200 + (len(pts) if pts else 0)
        value, err = sint.quad(
            integrand, 0.0, omega_max, args=args, epsabs=0.0, epsrel=inner, limit=limit,
            points=pts, full_output=1,
        )[:2]
    else:
        w1 = 2.0 * math.pi / t  # first oscillation period, kept un-split
        v0, e0 = sint.quad(
            integrand, 0.0, w1, args=args, epsabs=0.0, epsrel=inner, limit=100, full_output=1
        )[:2]
        v1, e1 = sint.quad(
            smooth, w1, omega_max, args=args, epsabs=0.0, epsrel=inner, limit=300, full_output=1
        )[:2]
        v2, e2 = sint.quad(
            envelope, w1, omega_max, args=args, weight=weight, wvar=t,
            epsabs=inner * (abs(v0) + scale * abs(v1)), epsrel=inner, limit=300, full_output=1,
        )[:2]
        value = v0 + scale * v1 - v2
        err = e0 + scale * e1 + e2

    err += tail_bound(spec, omega_max, t)
    _check_converged(name, value, err, rtol)
    return float(value)


def dephasing_exponent(t: float, spec: BathSpec, rtol: float = 1e-8) -> float:
    """Continuum dephasing exponent B2(t).

    B2(t) = 8 * int_0^inf dw J(w)/w^2 * sin^2(w t/2) * coth(beta w/2)

    For s = 1 the closed form of _ohmic_b2 is used; other exponents fall
    back to quadrature.  rtol bounds the quadrature error and is validated
    on both paths.
    """
    if spec.s == 1.0:
        _validate_time(t)
        _validate_rtol(rtol)
        return _ohmic_b2(t, spec)
    return dephasing_exponent_quadrature(t, spec, rtol)


def _ohmic_b2(t: float, spec: BathSpec) -> float:
    """B2(t) for s = 1 at any temperature, from coth(x) = 1 + 2 sum e^(-2nx).

    B2 = 4 eta [ln(1 + omega_c^2 t^2)/2 + 2 lnG(1+a) - 2 Re lnG(1+a+iy)],
    a = 1/(beta omega_c), y = t/beta (Palma, Suominen & Ekert, Proc. R. Soc.
    A 452, 567 (1996); Leggett et al., RMP 59, 1 (1987)).  For small y the
    log-gamma difference cancels; it is summed instead as
    sum_k (-1)^(k+1) psi^(2k-1)(1+a) y^(2k)/(2k)!, with each polygamma
    psi^(2k-1)(1+a)/(2k)! written as the Hurwitz zeta(2k, 1+a)/(2k).
    """
    if t == 0.0 or spec.eta == 0.0:
        return 0.0
    thermal = 0.0
    if math.isfinite(spec.beta):
        a = 1.0 / (spec.beta * spec.omega_c)
        y = t / spec.beta
        if y < SERIES_Y * (1.0 + a):
            k = np.arange(SERIES_TERMS, 0, -1)  # smallest term first
            terms = (-1.0) ** (k + 1) * zeta(2.0 * k, 1.0 + a) * y ** (2 * k) / (2 * k)
            thermal = float(np.sum(terms))
        else:
            thermal = float(loggamma(1.0 + a) - loggamma(complex(1.0 + a, y)).real)
    zero_t = 0.5 * math.log1p((spec.omega_c * t) ** 2)
    return 4.0 * spec.eta * (zero_t + 2.0 * thermal)


def dephasing_exponent_quadrature(t: float, spec: BathSpec, rtol: float = 1e-8) -> float:
    """B2(t) by adaptive quadrature (the only path for s != 1).

    For many oscillation periods the 1 - cos(w t) split is integrated with
    an oscillatory-weighted rule.  Raises QuadratureError if the combined
    error estimate exceeds rtol * value.
    """
    return _oscillatory_integral(
        "dephasing exponent", _b2_integrand, _b2_envelope, 1.0, _b2_envelope, "cos",
        _tail_bound_b2, t, spec, rtol,
    )


def dephasing_exponent_zero_t(t: float, spec: BathSpec) -> float:
    """Closed form at T = 0 for s = 1: B2(t) = 2 eta ln(1 + omega_c^2 t^2)."""
    _validate_time(t)
    if spec.s != 1.0:
        raise ValueError("zero-temperature closed form is implemented for s = 1 only")
    return 2.0 * spec.eta * math.log1p((spec.omega_c * t) ** 2)


def phase_shift(t: float, spec: BathSpec, rtol: float = 1e-8) -> float:
    """Bath-induced phase-shift integral C(t).

    C(t) = int_0^inf dw J(w)/w^2 * (w t - sin(w t))

    For s = 1 the closed form eta * (omega_c t - arctan(omega_c t)) is used;
    other exponents fall back to quadrature.
    """
    _validate_time(t)
    if spec.s == 1.0:
        return spec.eta * _x_minus_atan(spec.omega_c * t)
    return phase_shift_quadrature(t, spec, rtol)


def phase_shift_quadrature(t: float, spec: BathSpec, rtol: float = 1e-8) -> float:
    """C(t) by adaptive quadrature (cross-check path for the closed form)."""
    return _oscillatory_integral(
        "phase shift", _c_integrand, _c_linear, t, _c_envelope, "sin",
        _tail_bound_c, t, spec, rtol,
    )


# ---------------------------------------------------------------------------
# discretization


def discretize_bath(spec: BathSpec, n_modes: int, omega_max: float) -> DiscreteBath:
    """Midpoint discretization: omega_k = (k - 1/2) dw, g_k^2 = J(omega_k) dw."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not math.isfinite(omega_max) or omega_max <= 0.0:
        raise ValueError(f"omega_max must be finite and > 0, got {omega_max}")
    dw = omega_max / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    g2 = spectral_density(w, spec) * dw
    return DiscreteBath(omegas=w, g_sq=g2)


def dephasing_exponent_modes(t: float, bath: DiscreteBath, beta: float) -> float:
    """Discrete-mode dephasing exponent.

    B2(t) = 8 * sum_k g_k^2/omega_k^2 * sin^2(omega_k t/2) * coth(beta omega_k/2)
    """
    _validate_time(t)
    if math.isnan(beta) or beta <= 0.0:
        raise ValueError(f"beta must be > 0 (inf allowed), got {beta}")
    w = bath.omegas
    th = coth(0.5 * beta * w) if math.isfinite(beta) else 1.0
    terms = 8.0 * bath.g_sq / w**2 * np.sin(0.5 * w * t) ** 2 * th
    return float(np.sum(terms))


def phase_shift_modes(t: float, bath: DiscreteBath) -> float:
    """Discrete-mode phase shift C(t) = sum_k g_k^2/omega_k^2 (w_k t - sin w_k t)."""
    _validate_time(t)
    w = bath.omegas
    return float(np.sum(bath.g_sq / w**2 * _x_minus_sin(w * t)))


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
    if dephasing < 0.0:
        raise ValueError(f"dephasing exponent must be >= 0, got {dephasing}")
    diff = chi_fwd - chi_bwd
    return complex(-dephasing * diff * diff / 4.0, -shift * (chi_fwd**2 - chi_bwd**2))

