"""The float path of the reduced dynamics: the decoherence level and its first crossing.

The reduced map for a dephasing coupling damps the eigenbasis coherence by
u = exp(-B2(t)) (see `states`), so the worst-case deviation norm over all
initial states is D = (1 - u)/2.  This module holds D, the closed-form norm
of a pure state, and the low-decoherence time where D first reaches a
threshold, on the math module alone: curve, tld and sweep run on it.

The density-matrix records and numpy maps (QubitState, DeviationOperator,
evolve_real, ...) live in `states`; their names here load it on first use.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from collections.abc import Callable

from . import _bind_on_first_use, linspace
from .bath import BathSpec, dephasing_exponent

EIGENBASIS = "eigenbasis"
COMPUTATIONAL = "computational"


class NoCrossingError(RuntimeError):
    """The decoherence level never reaches the threshold within [0, t_max]."""

    def __init__(self, message: str, d_at_t_max: float):
        super().__init__(message)
        self.d_at_t_max = d_at_t_max


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
    if not dephasing >= 0.0:  # rejects nan too
        raise ValueError("dephasing exponent must be >= 0")
    return 0.5 * -math.expm1(-dephasing)  # expm1 stays accurate for small B2


# a non-negative double and its int64 bit pattern sort alike
_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _bisect(d_of_t: Callable[[float], float], threshold: float, lo: float, hi: float) -> float:
    """First double t in (lo, hi] with d(t) >= threshold, given d(lo) < threshold <= d(hi).

    Bisects the bit patterns of lo and hi until they are adjacent doubles
    and returns hi: at most 64 probes, however small the crossing, and
    neither end is probed.
    """
    (a,), (b,) = _INT64.unpack(_DOUBLE.pack(lo)), _INT64.unpack(_DOUBLE.pack(hi))
    while b - a > 1:
        mid = (a + b) // 2
        (t,) = _DOUBLE.unpack(_INT64.pack(mid))
        if d_of_t(t) >= threshold:
            b, hi = mid, t
        else:
            a = mid
    return hi


def low_decoherence_time(threshold: float, spec: BathSpec, t_max: float) -> float:
    """The first double t with max_decoherence(B2(t)) >= threshold.

    For s <= 2 B2 is non-decreasing, so D rises on [0, t_max].  For s > 2
    each term of B2 rises while its argument r = omega_c t (or t / (beta m),
    m >= 1/(beta omega_c)) stays below tan(pi/s), so D rises on [0, t_rise],
    t_rise = tan(pi/s)/omega_c, and a crossing there is the first one.  Past
    t_rise nothing is proved: the first cell of a 2049-point grid that reaches
    the threshold is bisected, with a RuntimeWarning.  B2 is memoized per
    call.  Raises NoCrossingError (carrying d(t_max)) if D(t_max) is below
    the threshold, ValueError for thresholds outside (0, 1/2).
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 1/2), got {threshold}")
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")

    @functools.cache
    def d_of_t(t: float) -> float:
        return max_decoherence(dephasing_exponent(t, spec))

    t_rise = math.tan(math.pi / spec.s) / spec.omega_c if spec.s > 2.0 else math.inf
    if t_rise < t_max and d_of_t(t_rise) >= threshold:
        return _bisect(d_of_t, threshold, 0.0, t_rise)
    d_end = d_of_t(t_max)
    if d_end < threshold:
        raise NoCrossingError(
            f"decoherence level {d_end:.6e} at t_max={t_max} never reaches "
            f"threshold {threshold:.6e}",
            d_at_t_max=d_end,
        )
    if t_rise < t_max:
        warnings.warn(
            f"D is not known to be monotone past t_rise={t_rise:.6e} at s={spec.s}; "
            "bisecting the first cell of a 2049-point grid that reaches the threshold",
            RuntimeWarning,
        )
        grid = linspace(0.0, t_max, 2049)
        lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if d_of_t(b) >= threshold)
        return _bisect(d_of_t, threshold, lo, hi)
    return _bisect(d_of_t, threshold, 0.0, t_max)


# the records and numpy maps that moved to `states`, still importable from here
__getattr__ = _bind_on_first_use(globals(), {".states": (
    "QubitState", "DeviationOperator", "HERMITICITY_TOL", "TRACE_TOL", "POSITIVITY_TOL",
    "BLOCH_GRID", "basis_change", "pure_state", "random_density_matrix", "evolve_ideal",
    "evolve_real", "evolve_real_influence_sum", "deviation", "deviation_norm",
    "deviation_norm_closed_form", "bloch_supremum_scan",
)})
