"""Discrete-mode bath: finite oscillator sets and their mode sums.

`discretize_bath` cuts J(w) into midpoint bins, and the mode sums of
B2(t) and C(t) are references for the continuum kernels of `bath`: verify
and the oracle check B2 against its sum, and the tests check C.  This
module needs numpy and loads on first use.

Memory: the bath's two arrays are the only full-length arrays here.
`discretize_bath` fills them in place, `DiscreteBath` checks and adopts
them without a copy, and the mode sums work through the modes one block
of _BLOCK at a time, so no call holds more than the bath plus one block's
temporaries (under 0.3 MB).
"""

import math
import operator

import numpy as np

from .bath import BathSpec, _check_phase, _record, _validate_beta, _validate_time

# modes per block of every loop over a whole bath: 64 kB per float64 array,
# which bounds the temporaries of a check, a fill or a mode sum
_BLOCK = 8192
_NORMAL_MIN = np.finfo(float).tiny


def _blocks(*arrays):
    """The aligned blocks of _BLOCK modes of equal-length arrays, as tuples of views."""
    return (tuple(a[i:i + _BLOCK] for a in arrays) for i in range(0, arrays[0].size, _BLOCK))


def _every_block(test, *arrays) -> bool:
    """test(*blocks) is true throughout every block of the arrays."""
    return all(test(*blocks).all() for blocks in _blocks(*arrays))


def _block_sum(terms, *arrays) -> float:
    """The sum over all modes of terms(*blocks), one block of modes at a time."""
    return math.fsum(float(np.sum(terms(*blocks))) for blocks in _blocks(*arrays))


def _read_only(values) -> np.ndarray:
    """values as a read-only float64 array: an owned, read-only one as it is, else a copy."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


class DiscreteBath(_record("DiscreteBath", "omegas g_sq")):
    """Finite mode set {(omega_k, g_k^2)}: positive omega_k in any order, repeats adding.

    An owned, read-only float64 array is kept as it is; any other input is
    copied, so a caller's writeable array stays the caller's.
    """

    __slots__ = ()

    def __new__(cls, omegas, g_sq):
        w = _read_only(omegas)
        g2 = _read_only(g_sq)
        if w.ndim != 1 or g2.shape != w.shape:
            raise ValueError("omegas and g_sq must be 1-d arrays of equal length")
        if w.size == 0:
            raise ValueError("a discrete bath needs at least one mode")
        if not _every_block(lambda a, b: np.isfinite(a) & np.isfinite(b), w, g2):
            raise ValueError("mode parameters must be finite")
        if not _every_block(lambda a: a > 0.0, w):
            raise ValueError("mode frequencies must be positive")
        if not _every_block(lambda a: a >= 0.0, g2):
            raise ValueError("squared couplings must be non-negative")
        return super().__new__(cls, w, g2)


def _x_minus_sin(x):
    """x - sin(x) on a 1-d array, by the series that avoids cancellation where |x| < 0.1 only."""
    out = x - np.sin(x)
    small = np.abs(x) < 0.1
    xs = x[small]
    x2 = xs * xs
    out[small] = (xs * x2 / 6.0) * (1.0 - x2 / 20.0 + x2 * x2 / 840.0 - x2**3 / 60480.0)
    return out


def discretize_bath(spec: BathSpec, n_modes: int, omega_max: float) -> DiscreteBath:
    """Midpoint discretization: omega_k = (k - 1/2) dw, g_k^2 = J(omega_k) dw."""
    # a fractional count would put the last bins past omega_max
    n_modes = operator.index(n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not math.isfinite(omega_max) or omega_max <= 0.0:
        raise ValueError(f"omega_max must be finite and > 0, got {omega_max}")
    dw = omega_max / n_modes
    w = np.arange(n_modes, dtype=float)
    w += 0.5
    w *= dw
    g2 = np.empty(n_modes)
    for w_block, g2_block in _blocks(w, g2):
        j = spec.eta * np.power(w_block, spec.s) * np.exp(-w_block / spec.omega_c)
        np.multiply(j, dw, out=g2_block)
    w.setflags(write=False)
    g2.setflags(write=False)
    return DiscreteBath(omegas=w, g_sq=g2)


def dephasing_exponent_modes(t: float, bath: DiscreteBath, beta: float) -> float:
    """Discrete-mode dephasing exponent, in one form for every mode.

    B2(t) = 8 * sum_k g_k^2 s_k^2 coth(beta omega_k/2), s_k = sin(omega_k t/2)/omega_k,
    with s_k = t/2 where omega_k t/2 is not a normal double and coth z = 1/z where
    z = beta omega_k/2 is not: a term keeps its digits wherever 8 g_k^2 s_k^2 is normal.
    """
    _validate_time(t)
    _validate_beta(beta)
    _check_phase("omega", float(np.max(bath.omegas)), t)
    beta_m, beta_e = math.frexp(beta)

    def terms(w, g2):
        h = 0.5 * (w * t)  # w * t first: halving a subnormal w would round it
        s = np.divide(np.sin(h), w, out=np.full_like(w, 0.5 * t), where=h >= _NORMAL_MIN)
        a = 8.0 * g2 * s * s
        z = 0.5 * (beta * w)
        limit = z < _NORMAL_MIN
        # 2a/(beta w) in powers of two: beta w underflows here, and 2/beta may overflow
        m, e = np.frexp(w[limit])
        a[limit] = np.ldexp(2.0 * a[limit] / (beta_m * m), -(beta_e + e))
        return np.divide(a, np.tanh(z), out=a, where=~limit)

    with np.errstate(over="ignore"):  # a beta w past the largest double is coth = 1
        return _block_sum(terms, *bath)


def phase_shift_modes(t: float, bath: DiscreteBath) -> float:
    """Discrete-mode phase shift C(t) = sum_k g_k^2/omega_k^2 (w_k t - sin w_k t)."""
    _validate_time(t)
    _check_phase("omega", float(np.max(bath.omegas)), t)
    return _block_sum(lambda w, g2: g2 / w**2 * _x_minus_sin(w * t), *bath)
