"""numpy, imported on first use, and the list grid of the numpy-free paths.

curve, tld and sweep run on math alone: their launch loads decoq.cli,
bath, the float path of evolution and units, and nothing else of decoq.
bath and cli still name `np`, so it is a lazy module
(importlib.util.LazyLoader): numpy executes on the first attribute
access, which only verify, the oracle, the records and maps of `states`
and the discrete-bath API make.  evolution takes `linspace` alone.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """The module if already imported, else one that imports on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")


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
