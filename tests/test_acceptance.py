"""End-to-end acceptance checks.

Each test prints exactly one [acceptance] PASS/FAIL line before asserting,
so a plain `pytest tests/test_acceptance.py -v -s` doubles as the release
checklist.  The low-decoherence-window criterion checks the paper's claim
that the window covers the idle gate with D below the threshold, and checks
the measured window against an independent closed-form root.  Its line also
reports the 49.4 ps benchmark reference and the relative deviation from it;
that reference is reported, not asserted (see the README, "Tests").
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import loggamma

from decoq.bath import BathSpec, dephasing_exponent, phase_shift
from decoq.cli import main
from decoq.discrete import dephasing_exponent_modes, discretize_bath
from decoq.evolution import (
    COMPUTATIONAL,
    QubitState,
    bloch_supremum_scan,
    evolve_real,
    max_decoherence,
    pure_state,
    random_density_matrix,
)
from decoq.oracle import (
    CompositeSystem,
    TruncatedBathMode,
    discrete_bath_from_modes,
    error_scaling,
    evolve_exact,
    split_vs_closed_form,
)
from decoq.units import temperature_to_beta

E_J = 51.8
ETA = 1e-6
OMEGA_C = 200.0
BETA_30MK = temperature_to_beta(30.0)


def bench_spec(**kw):
    base = dict(eta=ETA, omega_c=OMEGA_C, beta=BETA_30MK, s=1.0)
    base.update(kw)
    return BathSpec(**base)


def _report(name: str, ok: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_gate_time(tmp_path):
    # the gate time decoq tld reports: hbar/E_J at E_J = 51.8 ueV, frozen
    # from 6.582119e-10/51.8 s
    out = tmp_path / "tld.json"
    code = main(["tld", "--out", str(out)])
    tau_ps = json.loads(out.read_text())["tau_gate_ps"]
    ok = (code == 0 and tau_ps == pytest.approx(12.706793436293436, rel=1e-12, abs=0.0)
          and abs(tau_ps - 12.7) <= 0.05)
    _report("gate-time", ok, f"tau_gate = {tau_ps!r} ps, reference 12.7 ps")


def _ohmic_b2_closed_form(t: float) -> float:
    """B^2(t) for s = 1 at the benchmark bath, from the coth expansion.

    B^2 = 4 eta [ln(1 + w_c^2 t^2)/2 + 2 Re lnG(1+a) - 2 Re lnG(1+a+iy)],
    a = 1/(beta w_c), y = t/beta (Leggett et al., RMP 59, 1 (1987)).
    """
    a = 1.0 / (BETA_30MK * OMEGA_C)
    y = t / BETA_30MK
    gammas = loggamma(1.0 + a).real - loggamma(complex(1.0 + a, y)).real
    return 4.0 * ETA * (0.5 * math.log1p((OMEGA_C * t) ** 2) + 2.0 * gammas)


def test_02_low_decoherence_window(tmp_path):
    threshold = 1e-4
    out = tmp_path / "tld.json"
    code = main(["tld", "--out", str(out)])
    report = json.loads(out.read_text())
    tau = report["tau_ld_units"]
    exists = code == 0 and tau is not None and math.isfinite(tau)
    if not exists:
        _report("low-decoherence-window", False, f"no finite window (exit {code})")
    # D(t) = threshold  <=>  B^2(t) = -ln(1 - 2 threshold)
    b2_target = -math.log1p(-2.0 * threshold)
    root = brentq(lambda t: _ohmic_b2_closed_form(t) - b2_target,
                  1e-3, 10.0, xtol=1e-15, rtol=8.9e-16)
    root_rel = abs(tau - root) / root
    tau_gate = report["tau_gate_units"]
    d_gate = report["d_at_gate"]
    # the window must cover the idle gate, and low_decoherence_time returns
    # the first double at the threshold
    ok = tau >= tau_gate and d_gate < threshold and root_rel <= 1e-12
    detail = (
        f"tau_ld = {tau} units = {report['tau_ld_ps']} ps, closed-form root "
        f"{root:.6f} (rel {root_rel:.1e}, asserted <= 1e-12); tau_gate = "
        f"{tau_gate:.6f} units, D(tau_gate) = {d_gate:.3e} < {threshold:.0e}; "
        f"reference 49.4 ps, rel dev {report['reference']['tau_ld_rel_dev']} "
        "(reported, not asserted)"
    )
    _report("low-decoherence-window", ok, detail)


def test_03_zero_temperature_closed_form():
    spec = bench_spec(beta=math.inf)
    worst = 0.0
    for t in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        closed = 2.0 * ETA * math.log1p((OMEGA_C * t) ** 2)
        got = dephasing_exponent(t, spec)
        worst = max(worst, abs(got - closed) / closed)
    _report("zero-temperature-closed-form", worst <= 1e-12, f"worst rel {worst:.3e}")


def test_04_shift_integral_closed_form():
    spec = bench_spec(beta=math.inf)
    worst = 0.0
    for t in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        x = OMEGA_C * t
        closed = ETA * (x - math.atan(x))
        got = phase_shift(t, spec)
        worst = max(worst, abs(got - closed) / closed)
    _report("shift-integral-closed-form", worst <= 1e-12, f"worst rel {worst:.3e}")


def test_05_discrete_vs_continuum():
    spec = bench_spec()
    bath = discretize_bath(spec, 200000, 60.0 * OMEGA_C)
    worst = 0.0
    for t in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        cont = dephasing_exponent(t, spec)
        disc = dephasing_exponent_modes(t, bath, spec.beta)
        worst = max(worst, abs(disc - cont) / cont)
    _report("discrete-vs-continuum", worst <= 1e-4, f"worst rel {worst:.3e}")


def test_06_pure_dephasing_oracle():
    system = CompositeSystem(e_j=0.0, modes=(TruncatedBathMode(8.0, 0.5, 16),))
    bath = discrete_bath_from_modes(system.modes)
    rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
    worst = 0.0
    for t in (0.01, 0.05, 0.1, 0.5):
        reduced = evolve_exact(system, rho0, BETA_30MK, t)
        predicted = 0.5 * math.exp(-dephasing_exponent_modes(t, bath, BETA_30MK))
        worst = max(worst, abs(reduced.rho[0, 1] - predicted))
    _report("pure-dephasing-oracle", worst <= 1e-8, f"worst abs {worst:.3e}")


def test_07_closed_form_vs_split_oracle():
    rng = np.random.default_rng(20260822)
    systems = [
        CompositeSystem(e_j=E_J, modes=(TruncatedBathMode(8.0, 0.5, 14),)),
        CompositeSystem(
            e_j=E_J,
            modes=(TruncatedBathMode(16.0, 0.4, 6), TruncatedBathMode(23.0, 0.3, 6)),
        ),
    ]
    worst = 0.0
    for system in systems:
        for _ in range(50):
            state = random_density_matrix(rng)
            t = float(rng.uniform(0.02, 1.0))
            cmp = split_vs_closed_form(system, state, BETA_30MK, t)
            worst = max(worst, cmp.max_abs_diff)
    _report(
        "closed-form-vs-split-oracle", worst <= 1e-10,
        f"worst element diff {worst:.3e} over 100 random states",
    )


def test_08_split_order():
    system = CompositeSystem(
        e_j=E_J,
        modes=(TruncatedBathMode(16.0, 0.8, 6), TruncatedBathMode(23.0, 0.6, 6)),
    )
    result = error_scaling(
        system, pure_state(math.pi / 3.0, 0.3), BETA_30MK, np.geomspace(4e-4, 3e-3, 6)
    )
    ok = 2.7 <= result.slope <= 3.3
    _report("split-order", ok, f"fitted slope {result.slope:.3f} on 6-point grid")


def test_09_bloch_supremum():
    rng = np.random.default_rng(20260822)
    worst = 0.0
    pole = True
    for _ in range(20):
        b2 = float(rng.uniform(1e-4, 1.5))
        t = float(rng.uniform(0.05, 2.0))
        best, theta, _ = bloch_supremum_scan(b2, t, E_J)
        worst = max(worst, abs(best - float(max_decoherence(b2))))
        pole = pole and theta == 0.0
    _report(
        "bloch-supremum", worst <= 1e-6 and pole,
        f"worst |scan - bound| {worst:.3e}, attained at the first basis state: {pole}",
    )


def test_10_cptp_sanity():
    rng = np.random.default_rng(20260822)
    worst_trace = worst_herm = 0.0
    min_eig = math.inf
    for _ in range(10000):
        state = random_density_matrix(rng)
        out = evolve_real(
            state, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 2.0)), E_J
        ).rho
        worst_trace = max(worst_trace, abs(np.trace(out) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(out).min()))
    ok = worst_trace < 1e-12 and worst_herm < 1e-12 and min_eig >= -1e-10
    _report(
        "cptp-sanity", ok,
        f"trace dev {worst_trace:.1e}, herm dev {worst_herm:.1e}, min eig {min_eig:.1e}",
    )


def test_11_monotonicity():
    t_star = 0.075
    d_eta = [
        float(max_decoherence(dephasing_exponent(t_star, bench_spec(eta=eta))))
        for eta in (1e-7, 1e-6, 1e-5)
    ]
    d_temp = [
        float(
            max_decoherence(
                dephasing_exponent(t_star, bench_spec(beta=temperature_to_beta(temp)))
            )
        )
        for temp in (10.0, 30.0, 100.0)
    ]
    eta_ok = d_eta[0] < d_eta[1] < d_eta[2]
    temp_ok = d_temp[0] < d_temp[1] < d_temp[2]
    _report(
        "monotonicity", eta_ok and temp_ok,
        f"D(t*) across eta {d_eta} rising: {eta_ok}; across T {d_temp} rising: {temp_ok}",
    )
