"""The float path of the reduced dynamics: the decoherence level and its first crossing.

The reduced map for a dephasing coupling damps the eigenbasis coherence by
u = exp(-B2(t)) (see `states`), so the worst-case deviation norm over all
initial states is D = (1 - u)/2.  This module holds D, the closed-form norm
of a pure state, and the low-decoherence time where D first reaches a
threshold, and the idle gate's answer (`idle_window`), on the math module
alone: curve, tld and sweep run on it.  B2 is checked in `bath` (inf
allowed); t, E_J, the threshold and t_max are checked here, for all.

The density-matrix record and numpy maps (QubitState, evolve_real, ...)
live in `states`; QubitState is still importable from here and loads it
on first use.
"""

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Callable

from . import _bind_on_first_use, bath
from .bath import BathSpec, _b2_peak_bound, _check_phase, _validate_dephasing, dephasing_exponent
from .units import _to_ps

EIGENBASIS = "eigenbasis"
COMPUTATIONAL = "computational"


class NoCrossingError(RuntimeError):
    """The decoherence level never reaches the threshold within [0, t_max]."""

    def __init__(self, message: str, d_at_t_max: float):
        super().__init__(message)
        self.d_at_t_max = d_at_t_max


def _check_e_j(e_j: float):
    if not math.isfinite(e_j) or e_j < 0.0:
        raise ValueError(f"E_J must be finite and >= 0, got {e_j}")


def _check_gate_e_j(e_j: float):
    """Stricter than the maps' E_J >= 0: the gate time 1/E_J must be a positive double,
    in time units and in ps as the reports write it (below about E_J = 3.66e-306 it is not)."""
    if not math.isfinite(e_j):
        raise ValueError(f"e_j must be finite, got {e_j}")
    if e_j <= 0.0:
        raise ValueError(f"e_j must be positive, got {e_j}")
    if not math.isfinite(_to_ps(1.0 / e_j)):
        raise ValueError(f"gate time 1/e_j is not finite in double precision at e_j={e_j}")


def _check_time_and_e_j(t: float, e_j: float):
    """t and E_J of a map, and the phase E_J t it turns, which must be a double."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    _check_e_j(e_j)
    _check_phase("E_J", e_j, t)


def _check_threshold_and_t_max(threshold: float, t_max: float):
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 1/2), got {threshold}")
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")


def pure_state_norm(theta: float, phi: float, dephasing: float, t: float, e_j: float) -> float:
    """deviation_norm_closed_form of pure_state(theta, phi), on floats alone.

    ||sigma||(t) = 1/2 (1 - e^{-B2}) sqrt(cos^2 theta + sin^2 theta sin^2(phi + t E_J/2))

    sin(phi + t E_J/2) is taken by its angle-sum formula, so the sum of
    the two angles is never rounded.  t, E_J and B2 are checked as
    evolve_real checks them.
    """
    _check_time_and_e_j(t, e_j)
    half = 0.5 * t * e_j
    s = math.sin(theta) * (math.sin(phi) * math.cos(half) + math.cos(phi) * math.sin(half))
    c = math.cos(theta)
    return max_decoherence(dephasing) * math.sqrt(c * c + s * s)


def max_decoherence(dephasing: float) -> float:
    """Worst-case deviation norm over all initial states: D = (1 - e^{-B2})/2, 1/2 at B2 = inf."""
    _validate_dephasing(dephasing)
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


Crossing = namedtuple("Crossing", "t proof probes d_end")


def _crossing(threshold: float, spec: BathSpec, t_max: float) -> Crossing:
    """The first double t with max_decoherence(B2(t)) >= threshold, and how it was found.

    For s <= 2 B2 is non-decreasing, so D rises on [0, t_max].  For s > 2
    each term of B2 rises while its argument r = omega_c t (or t / (beta m),
    m >= 1/(beta omega_c)) stays below tan(pi/s), so D rises on [0, t_rise],
    t_rise = tan(pi/s)/omega_c, and a crossing there is the first one; past
    it only bath._b2_peak_bound, which holds at every t, is proved.  proof is
    "monotone" (s <= 2) or "rise" (s > 2) for a crossing t, and "t_max" (D
    rises on the whole window) or "bound" for a proved no crossing, t None
    with d_end = D(t_max); probes counts the B2 calls.  ValueError for a
    threshold outside (0, 1/2) or where neither answer is proved.
    """
    _check_threshold_and_t_max(threshold, t_max)
    probes = 0

    def d_of_t(t: float) -> float:
        nonlocal probes
        probes += 1
        return max_decoherence(dephasing_exponent(t, spec))

    t_rise = math.tan(math.pi / spec.s) / spec.omega_c if spec.s > 2.0 else math.inf
    hi = min(t_rise, t_max)
    d_hi = d_of_t(hi)
    if d_hi >= threshold:
        t = _bisect(d_of_t, threshold, 0.0, hi)
        return Crossing(t, "rise" if spec.s > 2.0 else "monotone", probes, None)
    if hi == t_max:
        return Crossing(None, "t_max", probes, d_hi)
    # past t_rise, a relative 1e-12 covers the round-off of B2 and of its bound
    d_bound = max_decoherence(_b2_peak_bound(spec) * (1.0 + 1e-12))
    if d_bound >= threshold:
        raise ValueError(f"first crossing past t_rise={t_rise:.6e} is not proved at s={spec.s}: "
                         f"D(t_rise)={d_hi:.6e} < threshold {threshold:.6e} "
                         f"<= D(bound)={d_bound:.6e}")
    d_end = d_of_t(t_max)
    return Crossing(None, "bound", probes, d_end)


def low_decoherence_time(threshold: float, spec: BathSpec, t_max: float) -> float:
    """The first double t with max_decoherence(B2(t)) >= threshold, as `_crossing` finds it and
    raises ValueError; NoCrossingError (carrying D(t_max)) where it proves there is none."""
    found = _crossing(threshold, spec, t_max)
    if found.t is None:
        raise NoCrossingError(f"decoherence level {found.d_end:.6e} at t_max={t_max} never "
                              f"reaches threshold {threshold:.6e}", d_at_t_max=found.d_end)
    return found.t


def _relaxation_window(threshold: float, spec: BathSpec, e_j: float, tau_g: float):
    """(Gamma_down, tau_M) at E_J, or (None, None) unless both, tau_M in ps and
    tau_M/tau_g are positive normal doubles.

    The excited state decays at Gamma_down = 2 pi J(E_J) (1 + n) and the
    populations relax at Gamma_1 = 2 pi J(E_J) (1 + 2n), n = 1/expm1(beta E_J),
    so its deviation (Gamma_down/Gamma_1)(1 - e^(-Gamma_1 t)) reaches the
    threshold at tau_M = -log1p(-threshold Gamma_1/Gamma_down)/Gamma_1
    (Makhlin, Schoen & Shnirman, RMP 73, 357 (2001)).
    """
    x = spec.beta * e_j
    try:
        n = math.exp(-x) / -math.expm1(-x)  # 1/expm1(x), and 0 at beta = inf
        two_pi_j = 2.0 * math.pi * spec.eta * e_j**spec.s * math.exp(-e_j / spec.omega_c)
        rate, rate_1 = two_pi_j * (1.0 + n), two_pi_j * (1.0 + 2.0 * n)
        tau = -math.log1p(-threshold * (1.0 + 2.0 * n) / (1.0 + n)) / rate_1
    except (OverflowError, ZeroDivisionError):
        rate = tau = math.nan
    normal = all(sys.float_info.min <= v < math.inf for v in (rate, tau, _to_ps(tau), tau / tau_g))
    return (rate, tau) if normal else (None, None)


class IdleWindow(namedtuple("IdleWindow", "tau_g d_at_gate eta_max tau_ld d_at_t_max "
                                          "relaxation_rate tau_relax window_set_by proof probes")):
    """The idle gate's answer, as `idle_window` finds it; times in hbar/ueV.

    tau_g = 1/E_J, d_at_gate = D(tau_g), eta_max the first double eta with
    D(tau_g) >= threshold, which the bath's own eta does not set; tau_ld the
    first crossing, or None for a proved no crossing, with d_at_t_max = D(t_max)
    (else None); proof and probes say how `_crossing` found it (its proof and
    B2 calls); relaxation_rate and tau_relax the golden rule's Gamma_down and
    tau_M; window_set_by "dephasing" or "relaxation", whichever window is
    shorter.  Each of eta_max and the golden-rule pair is None unless a positive
    normal double (tau_M also in ps and over tau_g).  With no crossing, tau_ld
    is known only to pass t_max, so window_set_by is "relaxation" if
    tau_M < t_max and None otherwise.  The fields are results: none is checked.
    """

    __slots__ = ()


def idle_window(threshold: float, spec: BathSpec, e_j: float, t_max: float) -> IdleWindow:
    """The IdleWindow of a gate at E_J and a window [0, t_max]; ValueError as the argument
    checks and _crossing raise it (an s > 2 crossing past t_rise unproved)."""
    _check_gate_e_j(e_j)
    _check_threshold_and_t_max(threshold, t_max)
    tau_g = 1.0 / e_j
    total = dephasing_exponent(tau_g, spec._replace(eta=0.25))  # B2(tau_g)/(4 eta), free of eta
    d_at_gate = max_decoherence(bath._finite(4.0 * spec.eta * total, "B2", tau_g, spec))
    eta = 0.0  # a zero total is B2 = 0 at every eta (and 4 eta * 0 is nan once 4 eta overflows)
    if total > 0.0:  # the budget: the first double eta whose D(4 eta total) reaches the threshold
        eta = _bisect(lambda eta: max_decoherence(4.0 * eta * total), threshold, 0.0, math.inf)
    eta_max = eta if sys.float_info.min <= eta and 4.0 * eta * total < math.inf else None
    rate, relax = _relaxation_window(threshold, spec, e_j, tau_g)
    tau, proof, probes, d_end = _crossing(threshold, spec, t_max)
    shorter = relax is not None and relax < (t_max if tau is None else tau)
    set_by = "relaxation" if shorter else None if tau is None else "dephasing"
    return IdleWindow(tau_g, d_at_gate, eta_max, tau, d_end, rate, relax, set_by, proof, probes)


# the one record of `states` that is still importable from here
__getattr__ = _bind_on_first_use(globals(), {".states": ("QubitState",)})
