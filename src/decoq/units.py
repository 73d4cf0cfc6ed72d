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


def time_units_to_seconds(t: float) -> float:
    """Convert dimensionless time (units of 1/ueV) to seconds."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return t * TIME_UNIT_S


def gate_time(e_j: float) -> float:
    """Single-qubit gate duration hbar/E_J in seconds for E_J in ueV."""
    if not math.isfinite(e_j) or e_j <= 0.0:
        raise ValueError(f"Josephson energy must be positive, got {e_j}")
    return HBAR_UEV_S / e_j
