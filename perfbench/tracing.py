"""Spans around decoq's module boundaries, and the per-layer numbers built from them.

Inside a traced job, `install` replaces the names each decoq module
imported from another decoq module (cli -> bath/evolution/oracle/svgplot,
evolution -> bath, oracle -> bath/evolution/model) with wrappers that
record a span per call: layer name, start, end, parent span, whether it
raised, and a few attributes.  The job writes its spans to a JSON file
when it ends; the benchmark process turns them into per-layer metrics.
Nothing in decoq itself is edited.
"""

import functools
import json
import math
import time

# omega_c t below this separates short times, where the per-period
# breakpoint rule does the work, from long ones dominated by the
# oscillatory tail
SHORT_T_OMEGA_T = 20.0 * math.pi

# module -> {imported name: layer}
BOUNDARIES = {
    "decoq.cli": {
        "dephasing_exponent": "bath.dephasing_exponent",
        "phase_shift": "bath.phase_shift",
        "dephasing_exponent_modes": "bath.dephasing_exponent_modes",
        "discretize_bath": "bath.discretize_bath",
        "low_decoherence_time": "evolution.low_decoherence_time",
        "max_decoherence": "evolution.map",
        "deviation_norm_closed_form": "evolution.map",
        "evolve_real": "evolution.map",
        "evolve_ideal": "evolution.map",
        "evolve_real_influence_sum": "evolution.map",
        "deviation": "evolution.map",
        "deviation_norm": "evolution.map",
        "bloch_supremum_scan": "evolution.map",
        "evolve_exact": "oracle.evolve_exact",
        "error_scaling": "oracle.error_scaling",
        "write_svg": "svgplot.write_svg",
    },
    "decoq.evolution": {"dephasing_exponent": "bath.dephasing_exponent"},
    "decoq.oracle": {
        "dephasing_exponent_modes": "bath.dephasing_exponent_modes",
        "phase_shift_modes": "bath.phase_shift_modes",
        "evolve_real": "evolution.map",
        "gate_unitary": "model.busy",
        "basis_change": "model.busy",
    },
}

# the benchmark's own API job script calls these public oracle functions
API_LAYERS = {
    "evolve_exact": "oracle.evolve_exact",
    "evolve_split": "oracle.evolve_split",
    "split_vs_closed_form": "oracle.split_vs_closed_form",
    "error_scaling": "oracle.error_scaling",
}


class Recorder:
    """Spans kept in memory: [layer, start, end, parent, failed, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, layer, func, args, kwargs, attrs=None, after=None):
        rec = [layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               False, dict(attrs or {})]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return func(*args, **kwargs)
        except BaseException:
            rec[4] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if after is not None:
                rec[5].update(after())

    def wrap(self, layer, func, attrs_of=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            return self.span(layer, func, args, kwargs, attrs)

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _b2_attrs(t, spec, *args, **kwargs):
    return {"regime": "short_t" if spec.omega_c * t < SHORT_T_OMEGA_T else "long_t"}


def install(recorder, modules):
    """Wrap every boundary name of the loaded decoq modules in place."""
    for mod_name, names in BOUNDARIES.items():
        mod = modules.get(mod_name)
        if mod is None:
            continue
        for name, layer in names.items():
            attrs_of = _b2_attrs if name == "dephasing_exponent" else None
            setattr(mod, name, recorder.wrap(layer, getattr(mod, name), attrs_of))


def install_api(recorder, oracle):
    """Wrap the public oracle functions the API job script calls.

    Each span notes the composite dimension and whether the call had to
    compute an eigensystem (a first call) or found it cached (warm).
    """
    cache = oracle._eigensystem

    for name, layer in API_LAYERS.items():
        func = getattr(oracle, name)

        def call(*args, _func=func, _layer=layer, **kwargs):
            misses = cache.cache_info().misses
            attrs = {"dim": args[0].dim}
            return recorder.span(
                _layer, _func, args, kwargs, attrs,
                after=lambda: {"first": cache.cache_info().misses > misses},
            )

        setattr(oracle, name, functools.wraps(func)(call))


# ----------------------------------------------------------------- analysis


def self_times(spans):
    """Per-span self time: duration minus the union of its children's spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = -math.inf
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], end), spans[c][2]
            if hi > lo:
                covered += hi - lo
            end = max(end, hi)
        out.append((s[2] - s[1]) - covered)
    return out


def busy_time(spans, prefix):
    """Time inside spans of a layer, not counting spans nested in the same layer."""
    total = 0.0
    for s in spans:
        if s[0].startswith(prefix) and not _has_ancestor(spans, s, prefix):
            total += s[2] - s[1]
    return total


def _has_ancestor(spans, s, prefix):
    p = s[3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return True
        p = spans[p][3]
    return False


def parse_importtime(stderr_text):
    """Cumulative import seconds of decoq, scipy.integrate and scipy.special."""
    wanted = {"decoq": 0.0, "scipy.integrate": 0.0, "scipy.special": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in wanted:
            try:
                wanted[name] = max(wanted[name], int(parts[1]) / 1e6)
            except ValueError:
                continue
    return wanted
