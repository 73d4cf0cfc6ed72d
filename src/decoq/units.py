"""Unit system and conversions.

Energies are microelectronvolts (ueV), temperatures millikelvin, inverse
temperatures 1/ueV.  The dimensionless simulation time t carries units of
1/ueV, so one time unit corresponds to hbar/(1 ueV) seconds.
"""

import math

HBAR_UEV_S = 6.582119e-10
KB_UEV_PER_K = 86.17333
TIME_UNIT_S = HBAR_UEV_S

# the warmest temperature (mK) whose KB_UEV_PER_K * temp_mk is a double
_MAX_MK = 2.0861363195112867e306


def _to_ps(t: float) -> float:  # a time in hbar/ueV in ps, as the reports write it
    return t * TIME_UNIT_S / 1e-12


def temperature_to_beta(temp_mk: float) -> float:
    """Inverse temperature beta = 1/(kB T) in 1/ueV for T given in mK.

    Below about 6.5e-308 mK, beta = inf, the bath at T = 0: 1/(kB T)
    overflows there, and below 3e-323 mK kB T itself underflows to 0.
    Above 2.0861363195112867e306 mK kB T overflows, and the temperature
    is rejected.
    """
    if not math.isfinite(temp_mk) or temp_mk <= 0.0:
        raise ValueError(f"temperature must be positive and finite, got {temp_mk}")
    kt = KB_UEV_PER_K * temp_mk * 1e-3
    if kt == math.inf:
        raise ValueError(f"temperature must be at most {_MAX_MK} mK for kB*T to be a double, "
                         f"got {temp_mk}")
    return 1.0 / kt if kt else math.inf
