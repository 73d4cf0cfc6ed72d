"""Dephasing of an idling superconducting charge qubit.

The package models a charge qubit parked at its degeneracy point while an
Ohmic electromagnetic environment couples to the island charge.  It
provides the closed-form reduced dynamics over one idle gate, the
decoherence measures built on it, brute-force composite-system oracles
for validation, and a small command line front end.

Every public name is imported from its module on first access (PEP 562),
so `import decoq` loads no submodule and a launch compiles only what it runs.
verify's references and C(t) are not public names: import them from
`states`, `bath` and `discrete`.
"""

import importlib

__version__ = "0.1.0"


def _bind_on_first_use(namespace: dict, table: dict):
    """A module `__getattr__` (PEP 562) for the names of table, module -> names.

    The first lookup of a name imports its module (relative to decoq),
    binds the name in namespace, so later lookups are plain globals, and
    returns it.  Any other name raises AttributeError.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], __name__), name)
        namespace[name] = value
        return value

    return __getattr__


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, the doubles np.linspace gives."""
    div, delta = n - 1, hi - lo
    step = delta / div
    if step == 0.0:  # delta subnormal or zero: numpy scales by delta last
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


# submodule -> the public names it defines; a submodule name is not in it,
# so `from decoq import oracle` falls back to importing decoq.oracle
_EXPORTS = {
    ".bath": ("BathSpec", "dephasing_exponent"),
    ".discrete": ("DiscreteBath", "dephasing_exponent_modes", "discretize_bath"),
    ".evolution": (
        "COMPUTATIONAL", "EIGENBASIS", "IdleWindow", "NoCrossingError", "idle_window",
        "low_decoherence_time", "max_decoherence", "pure_state_norm",
    ),
    ".states": ("QubitState", "basis_change", "evolve_real", "pure_state"),
    ".oracle": (
        "CompositeSystem", "DimensionCapError", "ErrorScalingResult", "SplitComparison",
        "TruncatedBathMode", "error_scaling", "evolve_exact", "evolve_split", "gate_unitary",
        "split_vs_closed_form",
    ),
    ".units": ("HBAR_UEV_S", "KB_UEV_PER_K", "TIME_UNIT_S", "temperature_to_beta"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__ = _bind_on_first_use(globals(), _EXPORTS)
