"""Unit system and conversions.

Energies are microelectronvolts (ueV), temperatures millikelvin, inverse
temperatures 1/ueV.  The dimensionless simulation time t carries units of
1/ueV, so one time unit corresponds to hbar/(1 ueV) seconds.
"""

import math

HBAR_UEV_S = 6.582119e-10
KB_UEV_PER_K = 86.17333
TIME_UNIT_S = HBAR_UEV_S


def temperature_to_beta(temp_mk: float) -> float:
    """Inverse temperature beta = 1/(kB T) in 1/ueV for T given in mK."""
    if not math.isfinite(temp_mk) or temp_mk <= 0.0:
        raise ValueError(f"temperature must be positive and finite, got {temp_mk}")
    return 1.0 / (KB_UEV_PER_K * temp_mk * 1e-3)
