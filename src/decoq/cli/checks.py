"""The verify subcommand: cross-checks of the numerical machinery, on numpy and the oracle."""

import math

import numpy as np

from .. import __version__
from ..bath import BathSpec
from ..evolution import COMPUTATIONAL
from ..oracle import CompositeSystem, TruncatedBathMode, discrete_bath_from_modes
from ..states import QubitState, pure_state, random_density_matrix
from ..units import temperature_to_beta
# decoq.cli binds these on first use; taken from it, a wrapper set there is what runs
from . import (
    bloch_supremum_scan, dephasing_exponent, dephasing_exponent_modes, deviation, deviation_norm,
    deviation_norm_closed_form, discretize_bath, error_scaling, evolve_exact, evolve_ideal,
    evolve_real, evolve_real_influence_sum, max_decoherence,
)
from .commands import CUTOFF_CONVENTION, RunConfig, _write_json


def _check_discrete_vs_continuum() -> tuple[bool, str]:
    spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
    t = 0.5
    reference = dephasing_exponent(t, spec)
    bath = discretize_bath(spec, 200000, 60.0 * spec.omega_c)
    approx = dephasing_exponent_modes(t, bath, spec.beta)
    rel = abs(approx - reference) / reference
    return rel <= 1e-4, f"rel diff {rel:.3e} (tol 1e-4)"


def _check_pure_dephasing_oracle(corrupt: str | None) -> tuple[bool, str]:
    mode = TruncatedBathMode(omega=8.0, g=0.5, n_fock=16)
    system = CompositeSystem(e_j=0.0, modes=(mode,))
    beta = temperature_to_beta(30.0)
    rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
    bath = discrete_bath_from_modes(system.modes)
    factor = 1.05 if corrupt == "b2" else 1.0
    worst = 0.0
    for t in (0.01, 0.05, 0.1, 0.5):
        reduced = evolve_exact(system, rho0, beta, t)
        b2 = factor * dephasing_exponent_modes(t, bath, beta)
        predicted = 0.5 * math.exp(-b2)
        worst = max(worst, abs(reduced.rho[0, 1] - predicted))
    return worst <= 1e-8, f"max coherence diff {worst:.3e} (tol 1e-8)"


def _check_closed_vs_influence_sum(cfg: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        state = random_density_matrix(rng)
        b2 = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        fast = evolve_real(state, b2, t, cfg.e_j)
        slow = evolve_real_influence_sum(state, b2, t, cfg.e_j)
        worst = max(worst, float(np.max(np.abs(fast.rho - slow.rho))))
    return worst <= 1e-12, f"max element diff {worst:.3e} (tol 1e-12)"


def _check_norm_pipeline(cfg: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        state = random_density_matrix(rng)
        b2 = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        real = evolve_real(state, b2, t, cfg.e_j)
        ideal = evolve_ideal(state, t, cfg.e_j)
        direct = deviation_norm(deviation(real, ideal))
        closed = deviation_norm_closed_form(state, b2, t, cfg.e_j)
        worst = max(worst, abs(direct - closed))
    return worst <= 1e-12, f"max norm diff {worst:.3e} (tol 1e-12)"


def _check_bloch_supremum(cfg: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        b2 = float(rng.uniform(1e-4, 1.5))
        t = float(rng.uniform(0.05, 2.0))
        bound = max_decoherence(b2)
        scanned, _, _ = bloch_supremum_scan(b2, t, cfg.e_j)
        worst = max(worst, abs(scanned - bound))
    return worst <= 1e-6, f"max |scan - bound| {worst:.3e} (tol 1e-6)"


def _check_split_order() -> tuple[bool, str]:
    system = CompositeSystem(
        e_j=51.8,
        modes=(
            TruncatedBathMode(omega=16.0, g=0.8, n_fock=6),
            TruncatedBathMode(omega=23.0, g=0.6, n_fock=6),
        ),
    )
    state = pure_state(math.pi / 3.0, 0.3)
    times = np.geomspace(4e-4, 3e-3, 6)
    result = error_scaling(system, state, temperature_to_beta(30.0), times)
    ok = 2.7 <= result.slope <= 3.3
    return ok, f"fitted slope {result.slope:.3f} (expected within [2.7, 3.3])"


def cmd_verify(cfg: RunConfig, args) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def run(name, func, *fargs):
        try:
            passed, detail = func(*fargs)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        passed = bool(passed)
        checks.append({"name": name, "passed": passed, "detail": str(detail)})
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")

    run("discrete-vs-continuum-b2", _check_discrete_vs_continuum)
    run("pure-dephasing-oracle", _check_pure_dephasing_oracle, args.corrupt)
    run("closed-vs-influence-sum", _check_closed_vs_influence_sum, cfg, rng)
    run("norm-pipeline", _check_norm_pipeline, cfg, rng)
    run("bloch-supremum", _check_bloch_supremum, cfg, rng)
    run("split-order", _check_split_order)

    all_pass = all(c["passed"] for c in checks)
    out = args.out or "verify.json"
    payload = {
        "version": __version__,
        "convention": CUTOFF_CONVENTION,
        "config": cfg.echo("verify"),
        "corrupt": args.corrupt,
        "checks": checks,
        "all_pass": all_pass,
    }
    _write_json(out, payload)
    print(f"wrote {out}")
    return 0 if all_pass else 3
