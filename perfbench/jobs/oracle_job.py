"""API job: build CompositeSystems and run decoq's composite-system oracle.

    python perfbench/jobs/oracle_job.py SPEC.json OUT.json [SPANS.json]

SPEC.json names the operation and its inputs (see workloads.py).  The
job writes every reduced-state number the benchmark checks to OUT.json;
an exception from decoq is recorded there as the operation's error.  With
SPANS.json the public oracle calls and decoq's own module boundaries are
traced.
"""

import json
import os
import sys
import warnings


def _charge_state(theta, phi):
    import numpy as np

    psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return np.outer(psi, psi.conj())


def _system(oracle, spec):
    modes = tuple(oracle.TruncatedBathMode(omega=w, g=g, n_fock=n) for w, g, n in spec["modes"])
    return oracle.CompositeSystem(e_j=spec["e_j"], modes=modes)


def run(spec, oracle, evolution, beta):
    op = spec["op"]
    rho0 = _charge_state(*spec["state"])
    out = {"exact": [], "split": [], "split_closed": [], "slope": None}
    systems = [_system(oracle, s) for s in spec["systems"]]
    if op in ("scan", "cycle"):
        state = evolution.QubitState(rho0, evolution.COMPUTATIONAL)
        for _ in range(spec.get("passes", 1)):
            for k, system in enumerate(systems):
                for t in spec["exact_times"]:
                    r = oracle.evolve_exact(system, state, beta, t)
                    out["exact"].append([k, t, r.rho[0, 1].real, r.rho[0, 1].imag])
        for t in spec.get("split_times", []):
            r = oracle.evolve_split(systems[0], state, beta, t)
            out["split"].append([0, t, r.rho[0, 1].real, r.rho[0, 1].imag])
    elif op == "split_closed":
        state = evolution.QubitState(rho0, evolution.EIGENBASIS)
        for t in spec["split_times"]:
            c = oracle.split_vs_closed_form(systems[0], state, beta, t)
            flat = [[z.real, z.imag] for z in c.rho_split.ravel()]
            out["split_closed"].append([t, c.b_squared, flat])
    elif op == "error_scaling":
        state = evolution.QubitState(rho0, evolution.EIGENBASIS)
        out["slope"] = oracle.error_scaling(systems[0], state, beta, spec["times"]).slope
    else:
        raise ValueError(f"unknown op {op!r}")
    return out


def main() -> int:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import decoq
    from decoq import evolution, oracle
    from decoq.units import temperature_to_beta

    recorder = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder, sys.modules)
        tracing.install_api(recorder, oracle)

    beta = temperature_to_beta(spec["temp_mk"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if recorder:
                result = recorder.span("api.job", run, (spec, oracle, evolution, beta), {})
            else:
                result = run(spec, oracle, evolution, beta)
            result["error"] = None
        except (ValueError, RuntimeError) as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
    info = oracle._eigensystem.cache_info()
    result["warnings"] = sorted({w.category.__name__ for w in caught})
    result["cache"] = [info.hits, info.misses]
    result["decoq_file"] = decoq.__file__
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if recorder:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
