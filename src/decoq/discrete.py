"""Discrete-mode bath: finite oscillator sets and their mode sums.

`discretize_bath` cuts J(w) into midpoint bins, and the mode sums of
B2(t) and C(t) are the references against which verify and the oracle
check the continuum kernels of `bath`.  This module needs numpy and loads
on first use.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .bath import BathSpec, _record, _validate_beta, _validate_time


class DiscreteBath(_record("DiscreteBath", "omegas g_sq")):
    """Finite mode set {(omega_k, g_k^2)} with strictly increasing omega_k."""

    __slots__ = ()

    def __new__(cls, omegas, g_sq):
        w = np.array(omegas, dtype=float)
        g2 = np.array(g_sq, dtype=float)
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
        return super().__new__(cls, w, g2)


def coth(x):
    """Hyperbolic cotangent for x > 0 arrays; coth(inf) = 1."""
    out = 1.0 / np.tanh(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _x_minus_sin(x):
    """x - sin(x) on arrays, series-protected against cancellation for small x."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = (x * x2 / 6.0) * (1.0 - x2 / 20.0 + x2 * x2 / 840.0 - x2**3 / 60480.0)
    out = np.where(np.abs(x) < 0.1, series, x - np.sin(x))
    return out if out.ndim else float(out)


def spectral_density(omega, spec: BathSpec):
    """J(omega) = eta * omega**s * exp(-omega/omega_c); omega >= 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density is defined for omega >= 0")
    out = spec.eta * np.power(w, spec.s) * np.exp(-w / spec.omega_c)
    return out if out.ndim else float(out)


def discretize_bath(spec: BathSpec, n_modes: int, omega_max: float) -> DiscreteBath:
    """Midpoint discretization: omega_k = (k - 1/2) dw, g_k^2 = J(omega_k) dw."""
    # a fractional count would put the last bins past omega_max
    n_modes = operator.index(n_modes)
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
    _validate_beta(beta)
    w = bath.omegas
    with np.errstate(over="ignore"):  # a beta w past the largest double is coth = 1
        th = coth(0.5 * beta * w)
    terms = 8.0 * bath.g_sq / w**2 * np.sin(0.5 * w * t) ** 2 * th
    return float(np.sum(terms))


def phase_shift_modes(t: float, bath: DiscreteBath) -> float:
    """Discrete-mode phase shift C(t) = sum_k g_k^2/omega_k^2 (w_k t - sin w_k t)."""
    _validate_time(t)
    w = bath.omegas
    return float(np.sum(bath.g_sq / w**2 * _x_minus_sin(w * t)))
