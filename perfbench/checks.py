"""Reference values for each job, and the comparison of its outputs with them.

Every number a job reports that the benchmark checks becomes one Output:
an operation name (such as `curve.b_squared`), where it came from, whether
it met its claimed tolerance and |error| / tolerance.  A job that exits
with the documented "could not produce" code fails every output it owed.
A job that breaks the documented contract (a traceback, an undocumented
exit code, missing output) is reported separately as a broken operation.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from workloads import SWEEP_AXIS

QUAD_TOL = 1e-8     # decoq's default quad_tol, claimed for B2 and for D
ROOT_RTOL = 1e-4    # low_decoherence_time's bisection rtol, claimed for tau_ld
ORACLE_TOL = 1e-8   # `decoq verify`'s tolerance on oracle reduced-state elements
MODES_TOL = 1e-12   # float mode sum against the 30-digit sum
SLOPE_TOL = 0.3     # `decoq verify` accepts a fitted splitting order of 3 +- 0.3

VERIFY_CHECKS = (
    "discrete-vs-continuum-b2", "pure-dephasing-oracle", "closed-vs-influence-sum",
    "norm-pipeline", "bloch-supremum", "split-order",
)


@dataclass
class Output:
    op: str
    where: str
    ok: bool
    ratio: float
    detail: str


def bath_of(p) -> ref.Bath:
    return ref.Bath(p["eta"], p["omega_c"], p["temp_mk"], p["s"])


def curve_rows(n: int, s: int) -> list:
    """Row indices of a curve that are checked (t = 0 is exact and skipped)."""
    if s == 1:
        return list(range(4, n - 1, 4)) + [n - 1]
    return sorted({n // 8, n // 4, n // 2, n - 1} - {0})


def _tld_reference(p) -> dict:
    bath = bath_of(p)
    tau, d_end = ref.tau_ld(p["threshold"], bath, p["t_max"])
    return {"tau": tau, "d_end": d_end, "d_gate": ref.d_of_b2(ref.b2(1.0 / p["e_j"], bath))}


def reference_for(job) -> dict:
    """Reference values of everything `check` compares for this job."""
    p = job.params
    if job.kind == "curve":
        bath = bath_of(p)
        times = np.linspace(0.0, p["t_max"], p["samples"])
        rows = [[i, float(times[i]), ref.b2(float(times[i]), bath)] for i in curve_rows(p["samples"], p["s"])]
        if p["s"] == 1:
            # spot check of the closed form against the direct integral
            t = rows[-1][1]
            direct = ref.b2_direct(t, bath)
            if abs(direct / rows[-1][2] - 1.0) > 1e-12:
                raise ArithmeticError(f"closed form {rows[-1][2]!r} != direct {direct!r} at t={t}, {bath}")
        return {"rows": rows}
    if job.kind == "tld":
        return _tld_reference(p)
    if job.kind == "sweep":
        field = SWEEP_AXIS[1]
        return {"rows": [dict(_tld_reference(dict(p, **{field: v})), value=v) for v in p["values"]]}
    if job.kind == "verify":
        return {}
    if job.kind == "api":
        return _api_reference(p)
    raise ValueError(f"unknown job kind {job.kind!r}")


def _modes_b2(system, t, temp_mk):
    omegas = [m[0] for m in system["modes"]]
    g_sq = [m[1] ** 2 for m in system["modes"]]
    return ref.b2_modes(t, omegas, g_sq, temp_mk)


def _api_reference(p) -> dict:
    theta, phi = p["state"]
    rho0 = [[math.cos(theta / 2) ** 2, math.cos(theta / 2) * math.sin(theta / 2) * complex(math.cos(phi), -math.sin(phi))],
            [math.cos(theta / 2) * math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi)), math.sin(theta / 2) ** 2]]
    out = {}
    systems = p["systems"]
    if p["op"] in ("scan", "cycle"):
        def coherence(k, t):
            z = ref.dephased_coherence(rho0[0][1], _modes_b2(systems[k], t, p["temp_mk"]))
            return [z.real, z.imag]

        out["exact"] = {f"{k}:{t!r}": coherence(k, t) for k in range(len(systems)) for t in p["exact_times"]}
        out["split"] = {f"0:{t!r}": coherence(0, t) for t in p.get("split_times", [])}
    elif p["op"] == "split_closed":
        rows = []
        for t in p["split_times"]:
            b2 = _modes_b2(systems[0], t, p["temp_mk"])
            rho = ref.reduced_map(rho0, b2, t, systems[0]["e_j"])
            rows.append([t, b2, [[z.real, z.imag] for row in rho for z in row]])
        out["split_closed"] = rows
    elif p["op"] == "error_scaling":
        out["slope"] = 3.0
    return out


# ------------------------------------------------------------------ checks


def _rel(value, reference):
    if value is None or not math.isfinite(value):
        return math.nan
    if reference == 0.0:
        return abs(value)
    return abs(value - reference) / abs(reference)


def _out(op, where, err, tol, detail=""):
    ratio = err / tol
    ok = math.isfinite(ratio) and ratio <= 1.0
    return Output(op, where, ok, ratio, detail or f"error {err:.3g} vs tolerance {tol:.0e}")


def _owed(ops, where, why):
    return [Output(op, where, False, math.nan, why) for op in ops]


def _read_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    for ln in lines[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return rows


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def check(job, res, refd):
    """(outputs, broken) for one finished job; broken is None or a reason."""
    code = res["code"]
    if res.get("timeout"):
        return [], "timed out"
    if "Traceback (most recent call last)" in res["stderr"]:
        return [], f"traceback, exit {code}: {res['stderr'].strip().splitlines()[-1]}"
    try:
        if job.kind == "curve":
            return _check_curve(job, res, refd)
        if job.kind == "tld":
            return _check_tld(job, res, refd)
        if job.kind == "sweep":
            return _check_sweep(job, res, refd)
        if job.kind == "verify":
            return _check_verify(job, res)
        return _check_api(job, res, refd)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [], f"unreadable output ({type(exc).__name__}: {exc}), exit {code}"


def _point(p):
    return f"T={p['temp_mk']:.4g}mK wc={p['omega_c']:.4g} s={p['s']}"


def _check_curve(job, res, refd):
    p, code = job.params, res["code"]
    rows = refd["rows"]
    if code == 2:
        why = f"exit 2: {res['stderr'].strip()[:160]}"
        return _owed(["curve.b_squared"] * len(rows), f"{job.id} {_point(p)} t_max={p['t_max']:.4g}", why), None
    if code != 0:
        return [], f"undocumented exit {code} for curve"
    table = _read_csv(res["out"])
    outs = []
    for i, t, b2_ref in rows:
        got = _float(table[i]["b_squared"])
        where = f"{job.id} {_point(p)} t={t:.6g}"
        outs.append(_out("curve.b_squared", where, _rel(got, b2_ref), QUAD_TOL))
    return outs, None


# Each tld run and each sweep row owes two outputs, whether or not the
# reference has a crossing, so the number of checked outputs does not
# depend on the seed-drawn threshold: tau_ld and D at the gate where the
# reference crosses, else the crossing verdict and D at the window's end
# (tld) or at the gate (sweep).
def _owes(op, refd):
    if refd["tau"] is not None:
        return [f"{op}.tau_ld", f"{op}.d_at_gate"]
    return [f"{op}.crossing", f"{op}.d_at_t_max" if op == "tld" else f"{op}.d_at_gate"]


def _no_crossing_verdict(op, where):
    return Output(f"{op}.crossing", where, True, 0.0, "no crossing, as the reference")


def _tau_outputs(op, where, got_tau, got_d_gate, refd):
    """The two outputs owed by a run that reported a crossing."""
    if refd["tau"] is None:
        return _owed(_owes(op, refd), where, f"reported tau {got_tau!r}, reference has no crossing")
    return [
        _out(f"{op}.tau_ld", where, _rel(got_tau, refd["tau"]), ROOT_RTOL),
        _out(f"{op}.d_at_gate", where, _rel(got_d_gate, refd["d_gate"]), QUAD_TOL),
    ]


def _check_tld(job, res, refd):
    p, code = job.params, res["code"]
    where = f"{job.id} {_point(p)} t_max={p['t_max']:.4g} thr={p['threshold']:.3g}"
    if code not in (0, 2):
        return [], f"undocumented exit {code} for tld"
    try:
        with open(res["out"], encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        report = None
    if code == 2 and (report is None or not report.get("no_crossing")):
        # the quadrature gave up: every value the report owed is missing
        return _owed(_owes("tld", refd), where, f"exit 2: {res['stderr'].strip()[:160]}"), None
    if report is None:
        return [], "tld exited 0 without writing its report"
    if report["no_crossing"]:
        if refd["tau"] is not None:
            return _owed(_owes("tld", refd), where,
                         f"exit {code}: no crossing reported, reference tau {refd['tau']:.6g}"), None
        if code != 2:
            return [], "no crossing reported with exit 0"
        return [_no_crossing_verdict("tld", where),
                _out("tld.d_at_t_max", where, _rel(report["d_at_t_max"], refd["d_end"]), QUAD_TOL)], None
    return _tau_outputs("tld", where, report["tau_ld_units"], report["d_at_gate"], refd), None


def _check_sweep(job, res, refd):
    p, code = job.params, res["code"]
    if code != 0:
        return [], f"undocumented exit {code} for sweep"
    table = _read_csv(res["out"])
    outs = []
    for row, r in zip(table, refd["rows"]):
        where = f"{job.id} {_point(p)} {p['axis']}={r['value']:.4g} t_max={p['t_max']:.4g}"
        status = row["status"]
        if status.startswith("error"):
            outs += _owed(_owes("sweep", r), where, f"row in error: {status[:160]}")
        elif status.startswith("no-crossing"):
            if r["tau"] is not None:
                outs += _owed(_owes("sweep", r), where,
                              f"no crossing reported, reference tau {r['tau']:.6g}")
            else:
                got = _float(row["d_at_gate"])
                outs.append(_no_crossing_verdict("sweep", where))
                outs.append(_out("sweep.d_at_gate", where, _rel(got, r["d_gate"]), QUAD_TOL,
                                 "" if math.isfinite(got) else "d_at_gate written as nan"))
        else:
            outs += _tau_outputs("sweep", where, _float(row["tau_ld_units"]), _float(row["d_at_gate"]), r)
    if len(table) != len(refd["rows"]):
        return outs, f"sweep wrote {len(table)} rows for {len(refd['rows'])} values"
    return outs, None


def _check_verify(job, res):
    corrupt = job.params["corrupt"]
    code = res["code"]
    if code not in (0, 3):
        return [], f"undocumented exit {code} for verify"
    with open(res["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    verdicts = {c["name"]: c for c in report["checks"]}
    outs = []
    for name in VERIFY_CHECKS:
        expect = not (corrupt and name == "pure-dephasing-oracle")
        c = verdicts.get(name)
        ok = c is not None and c["passed"] == expect
        detail = f"passed={c['passed'] if c else None}, expected {expect} ({c['detail'] if c else 'missing'})"
        outs.append(Output(f"verify.{name}", job.id, ok, 0.0 if ok else math.nan, detail))
    expect_code = 3 if corrupt else 0
    if code != expect_code:
        outs = [Output(o.op, o.where, False, math.nan, f"exit {code}, expected {expect_code}")
                for o in outs]
    return outs, None


def _check_api(job, res, refd):
    p = job.params
    op = p["op"]
    if res["code"] != 0:
        return [], f"api job exit {res['code']}"
    with open(res["out"], encoding="utf-8") as fh:
        got = json.load(fh)
    where = f"{job.id} T={p['temp_mk']:.4g}mK d={p['systems'][0]['dim']}"
    if got["warnings"]:
        where += " warned=" + "+".join(got["warnings"])
    owed = {"scan": ["oracle.evolve_exact", "oracle.evolve_split"], "cycle": ["oracle.evolve_exact"],
            "split_closed": ["oracle.split_vs_closed_form"], "error_scaling": ["oracle.error_scaling"]}[op]
    if got["error"]:
        return _owed(owed, where, got["error"][:160]), None
    outs = []
    if op in ("scan", "cycle"):
        for key, name in (("exact", "oracle.evolve_exact"), ("split", "oracle.evolve_split")):
            for k, t, re_, im in got[key]:
                zr, zi = refd[key][f"{k}:{t!r}"]
                err = math.hypot(re_ - zr, im - zi)
                outs.append(_out(name, f"{where} sys{k} t={t:.4g}", err, ORACLE_TOL))
    elif op == "split_closed":
        for (t, b2, flat), (_, b2_ref, flat_ref) in zip(got["split_closed"], refd["split_closed"]):
            outs.append(_out("oracle.split_vs_closed_form.b_squared", f"{where} t={t:.4g}",
                             _rel(b2, b2_ref), MODES_TOL))
            err = max(math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(flat, flat_ref))
            outs.append(_out("oracle.split_vs_closed_form.rho", f"{where} t={t:.4g}", err, ORACLE_TOL))
    else:
        outs.append(_out("oracle.error_scaling.slope", where, abs(got["slope"] - refd["slope"]), SLOPE_TOL,
                         f"slope {got['slope']:.4f}, expected 3 +- {SLOPE_TOL}"))
    return outs, None
