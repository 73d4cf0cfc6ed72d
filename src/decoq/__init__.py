"""Dephasing of an idling superconducting charge qubit.

The package models a charge qubit parked at its degeneracy point while an
Ohmic electromagnetic environment couples to the island charge.  It
provides the closed-form reduced dynamics over one idle gate, the
decoherence measures built on it, brute-force composite-system oracles
for validation, and a small command line front end.
"""

__version__ = "0.1.0"

from .bath import (
    BathSpec,
    DiscreteBath,
    coth,
    dephasing_exponent,
    dephasing_exponent_modes,
    discretize_bath,
    influence_exponent,
    phase_shift,
    phase_shift_modes,
    spectral_density,
)
from .evolution import (
    COMPUTATIONAL,
    EIGENBASIS,
    DeviationOperator,
    NoCrossingError,
    QubitState,
    bloch_supremum_scan,
    deviation,
    deviation_norm,
    deviation_norm_closed_form,
    evolve_ideal,
    evolve_real,
    evolve_real_influence_sum,
    low_decoherence_time,
    max_decoherence,
    pure_state,
    pure_state_norm,
    random_density_matrix,
)
from .model import basis_change, gate_unitary
from .oracle import (
    BathTruncationWarning,
    CompositeSystem,
    DimensionCapError,
    ErrorScalingResult,
    SplitComparison,
    TruncatedBathMode,
    error_scaling,
    evolve_exact,
    evolve_split,
    split_vs_closed_form,
    thermal_bath_state,
)
from .units import (
    HBAR_UEV_S,
    KB_UEV_PER_K,
    TIME_UNIT_S,
    temperature_to_beta,
)

import types as _types

__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
