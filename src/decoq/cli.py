"""Command line front end.

Subcommands:

    curve    decoherence measures on a time grid -> CSV + SVG
    tld      low-decoherence time against the idle-gate time -> JSON
    sweep    low-decoherence time across a parameter axis -> CSV + SVG
    verify   built-in cross-checks of the numerical machinery -> JSON

Exit codes: 0 success, 1 usage or configuration error (including a bath
whose B2 or C is not finite in double precision), 2 no threshold crossing
on the window, 3 a verification or consistency check failed.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bath import (
    BathSpec,
    dephasing_exponent,
    dephasing_exponent_modes,
    discretize_bath,
    phase_shift,
)
from .evolution import (
    COMPUTATIONAL,
    DecoherenceCurve,
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
    random_density_matrix,
)
from .oracle import (
    CompositeSystem,
    TruncatedBathMode,
    discrete_bath_from_modes,
    error_scaling,
    evolve_exact,
)
from .svgplot import Series, write_svg
from .units import TIME_UNIT_S, temperature_to_beta

# adopted spectral-density convention, echoed into every output file
CUTOFF_CONVENTION = (
    "J(omega) = eta * omega**s * exp(-omega/omega_c), decaying cutoff"
)

# benchmark reference values (ps) used only to report relative deviations
REFERENCE_TAU_LD_PS = 49.4
REFERENCE_TAU_G_PS = 12.7

# initial states on the Bloch sphere of the degeneracy-point eigenbasis,
# given as (theta, phi)
PRESETS = {
    "point": (0.0, 0.0),
    "line1": (math.pi / 3.0, 0.0),
    "line2": (math.pi / 2.0, 0.0),
}

_SECONDS_PER_PS = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Physics and numerics knobs shared by all subcommands."""

    e_j: float = 51.8
    temp_mk: float = 30.0
    eta: float = 1e-6
    omega_c: float = 200.0
    s: float = 1.0
    t_max: float = 10.0
    n_samples: int = 400
    threshold: float = 1e-4
    # accepted so existing config files and scripts keep working; no kernel
    # reads it since B2 and C are evaluated exactly
    quad_tol: float = 1e-8
    seed: int = 1234
    initial_states: tuple = ("point", "line1", "line2")

    def validate(self):
        if not math.isfinite(self.e_j) or self.e_j <= 0.0:
            raise ValueError(f"e_j must be positive, got {self.e_j}")
        self.bath_spec()
        if not math.isfinite(self.t_max) or self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not (0.0 < self.threshold < 0.5):
            raise ValueError(f"threshold must lie in (0, 0.5), got {self.threshold}")
        if not (0.0 < self.quad_tol <= 1e-3):
            raise ValueError(f"quad_tol must lie in (0, 1e-3], got {self.quad_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.initial_states:
            raise ValueError("at least one initial state is required")
        for name in self.initial_states:
            if name not in PRESETS:
                raise ValueError(
                    f"unknown initial state {name!r}; choose from {sorted(PRESETS)}"
                )

    def bath_spec(self) -> BathSpec:
        return BathSpec(
            eta=self.eta,
            omega_c=self.omega_c,
            beta=temperature_to_beta(self.temp_mk),
            s=self.s,
        )

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["initial_states"] = list(self.initial_states)
        return out


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_INT_FIELDS = {"n_samples", "seed"}


def _coerce(key: str, value: str):
    if key == "initial_states":
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if key in _INT_FIELDS:
        return int(value)
    return float(value)


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip().strip("\"'")
            if not sep or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[key] = _coerce(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return overrides


_FLAG_TO_FIELD = {
    "ej": "e_j",
    "temp_mk": "temp_mk",
    "eta": "eta",
    "cutoff": "omega_c",
    "t_max": "t_max",
    "samples": "n_samples",
    "threshold": "threshold",
    "quad_tol": "quad_tol",
    "seed": "seed",
    "state": "initial_states",
}


def build_config(args) -> tuple[RunConfig, set]:
    """Defaults, then config file, then explicit flags.  Returns the set of
    explicitly overridden field names alongside the config."""
    values = dataclasses.asdict(RunConfig())
    explicit = set()
    if getattr(args, "config", None):
        file_overrides = parse_config_file(args.config)
        values.update(file_overrides)
        explicit |= set(file_overrides)
    for flag, field in _FLAG_TO_FIELD.items():
        arg_val = getattr(args, flag, None)
        if arg_val is None:
            continue
        if field == "initial_states":
            arg_val = tuple(arg_val)
        values[field] = arg_val
        explicit.add(field)
    values["initial_states"] = tuple(values["initial_states"])
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg, explicit


def _g17(x) -> str:
    return format(float(x), ".17g")


def _metadata_lines(cfg: RunConfig, kind: str) -> list:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(cfg.echo().items()))
    return [
        f"# decoq {__version__} {kind}",
        f"# convention: {CUTOFF_CONVENTION}",
        f"# config: {pairs}",
    ]


def _sibling_svg(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".svg"


# ---------------------------------------------------------------- curve

def cmd_curve(cfg: RunConfig, args) -> int:
    spec = cfg.bath_spec()
    times = np.linspace(0.0, cfg.t_max, cfg.n_samples)
    b2 = np.empty_like(times)
    shift = np.empty_like(times)
    for i, t in enumerate(times):
        b2[i] = dephasing_exponent(float(t), spec)
        shift[i] = phase_shift(float(t), spec)
    d = max_decoherence(b2)
    norms = {}
    for name in cfg.initial_states:
        state = pure_state(*PRESETS[name])
        norms[name] = deviation_norm_closed_form(state, b2, times, cfg.e_j)
    curve = DecoherenceCurve(times=times, dephasing=b2, shift=shift, d=d, norms=norms)

    out_csv = args.out or "curve.csv"
    columns = ["t", "b_squared", "c_shift", "D"] + [f"norm_{n}" for n in cfg.initial_states]
    with open(out_csv, "w", encoding="utf-8") as fh:
        for line in _metadata_lines(cfg, "curve"):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for i in range(times.size):
            row = [times[i], b2[i], shift[i], d[i]]
            row += [norms[n][i] for n in cfg.initial_states]
            fh.write(",".join(_g17(v) for v in row) + "\n")
    print(f"wrote {out_csv} ({times.size} samples)")

    series = [Series(label="D(t)", x=curve.times, y=curve.d, mode="points")]
    for name in cfg.initial_states:
        series.append(Series(label=f"norm {name}", x=curve.times, y=curve.norms[name]))
    out_svg = _sibling_svg(out_csv)
    try:
        write_svg(
            out_svg,
            series,
            title="decoherence measures",
            xlabel="t (hbar/ueV)",
            ylabel="deviation",
            log_y=args.log_y,
        )
    except ValueError as exc:
        print(f"note: skipped {out_svg}: {exc}", file=sys.stderr)
        return 0
    print(f"wrote {out_svg}")
    return 0


# ---------------------------------------------------------------- tld

def _tld_report(cfg: RunConfig) -> tuple[dict, int]:
    spec = cfg.bath_spec()
    tau_gate_units = 1.0 / cfg.e_j
    tau_gate_ps = tau_gate_units * TIME_UNIT_S / _SECONDS_PER_PS
    report = {
        "version": __version__,
        "convention": CUTOFF_CONVENTION,
        "config": cfg.echo(),
        "threshold": cfg.threshold,
        "tau_gate_units": tau_gate_units,
        "tau_gate_ps": tau_gate_ps,
        "reference": {
            "tau_ld_ps": REFERENCE_TAU_LD_PS,
            "tau_gate_ps": REFERENCE_TAU_G_PS,
            "tau_gate_rel_dev": tau_gate_ps / REFERENCE_TAU_G_PS - 1.0,
        },
        "d_at_gate": float(
            max_decoherence(dephasing_exponent(tau_gate_units, spec))
        ),
    }
    try:
        tau = low_decoherence_time(cfg.threshold, spec, cfg.t_max)
    except NoCrossingError as exc:
        report.update(
            {
                "no_crossing": True,
                "tau_ld_units": None,
                "tau_ld_ps": None,
                "d_at_t_max": exc.d_at_t_max,
                "verdict": (
                    "D stays below the threshold on the whole window; "
                    "the low-decoherence time exceeds t_max"
                ),
            }
        )
        return report, 2
    tau_ps = tau * TIME_UNIT_S / _SECONDS_PER_PS
    covers = tau >= tau_gate_units
    report.update(
        {
            "no_crossing": False,
            "tau_ld_units": tau,
            "tau_ld_ps": tau_ps,
            "ratio_ld_over_gate": tau / tau_gate_units,
            "verdict": (
                "low-decoherence window covers the idle gate"
                if covers
                else "low-decoherence window is shorter than the idle gate"
            ),
        }
    )
    report["reference"]["tau_ld_rel_dev"] = tau_ps / REFERENCE_TAU_LD_PS - 1.0
    return report, 0


def cmd_tld(cfg: RunConfig, args) -> int:
    report, code = _tld_report(cfg)
    out = args.out or "tld.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if report["no_crossing"]:
        print(
            "no crossing: D(t_max) = "
            f"{report['d_at_t_max']:.3e} < threshold {cfg.threshold:.3e}"
        )
    else:
        print(
            f"tau_ld = {report['tau_ld_units']:.6g} time units "
            f"({report['tau_ld_ps']:.6g} ps)"
        )
        print(
            f"tau_gate = {report['tau_gate_units']:.6g} time units "
            f"({report['tau_gate_ps']:.6g} ps)"
        )
        print(report["verdict"])
    print(f"wrote {out}")
    return code


# ---------------------------------------------------------------- sweep

_AXIS_TO_FIELD = {"T": "temp_mk", "eta": "eta", "E_J": "e_j", "omega_c": "omega_c"}


def cmd_sweep(cfg: RunConfig, args) -> int:
    field = _AXIS_TO_FIELD[args.axis]
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"error: could not parse --values {args.values!r}", file=sys.stderr)
        return 1
    if len(values) < 2:
        print("error: sweep needs at least two axis values", file=sys.stderr)
        return 1

    rows = []
    for value in values:
        row_cfg = dataclasses.replace(cfg, **{field: value})
        try:
            row_cfg.validate()
            report, _ = _tld_report(row_cfg)
        except ValueError as exc:
            rows.append((value, math.nan, math.nan, math.nan,
                         f"error: {str(exc).replace(',', ';')}"))
        else:
            if report["no_crossing"]:
                rows.append((value, math.nan, math.nan, report["d_at_gate"],
                             f"no-crossing: D(t_max)={report['d_at_t_max']:.3e}"))
            else:
                rows.append((value, report["tau_ld_units"], report["tau_ld_ps"],
                             report["d_at_gate"], "ok"))

    out_csv = args.out or "sweep.csv"
    with open(out_csv, "w", encoding="utf-8") as fh:
        for line in _metadata_lines(cfg, f"sweep axis={args.axis}"):
            fh.write(line + "\n")
        fh.write("value,tau_ld_units,tau_ld_ps,d_at_gate,status\n")
        for value, tau, tau_ps, d_gate, status in rows:
            fh.write(
                ",".join([_g17(value), _g17(tau), _g17(tau_ps), _g17(d_gate), status])
                + "\n"
            )
    print(f"wrote {out_csv} ({len(rows)} points)")

    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    out_svg = _sibling_svg(out_csv)
    try:
        write_svg(
            out_svg,
            [
                Series(label="tau_ld", x=xs, y=ys, mode="line"),
                Series(label="points", x=xs, y=ys, mode="points"),
            ],
            title=f"low-decoherence time vs {args.axis}",
            xlabel=args.axis,
            ylabel="tau_ld (hbar/ueV)",
            log_y=args.log_y,
        )
        print(f"wrote {out_svg}")
    except ValueError as exc:
        print(f"note: skipped {out_svg}: {exc}", file=sys.stderr)

    if args.check:
        # decoherence accumulates faster when the bath is hotter or more
        # strongly coupled, so tau_ld must not grow along these axes
        order = np.argsort(xs)
        prev = None
        for idx in order:
            if not math.isfinite(ys[idx]):
                continue
            if prev is not None and ys[idx] > prev * (1.0 + 1e-9):
                print(
                    f"check failed: tau_ld rises from {prev:.6g} to "
                    f"{ys[idx]:.6g} along increasing {args.axis}",
                    file=sys.stderr,
                )
                return 3
            prev = ys[idx]
        print(f"monotonicity check passed along {args.axis}")
    return 0


# ---------------------------------------------------------------- verify

def _check_discrete_vs_continuum(cfg: RunConfig) -> tuple[bool, str]:
    spec = BathSpec(eta=1e-6, omega_c=200.0, beta=temperature_to_beta(30.0))
    t = 0.5
    reference = dephasing_exponent(t, spec)
    bath = discretize_bath(spec, 200000, 60.0 * spec.omega_c)
    approx = dephasing_exponent_modes(t, bath, spec.beta)
    rel = abs(approx - reference) / reference
    return rel <= 1e-4, f"rel diff {rel:.3e} (tol 1e-4)"


def _check_pure_dephasing_oracle(cfg: RunConfig, corrupt: str | None) -> tuple[bool, str]:
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
        shift = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 2.0))
        fast = evolve_real(state, b2, t, cfg.e_j)
        slow = evolve_real_influence_sum(state, b2, shift, t, cfg.e_j)
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
        closed = float(deviation_norm_closed_form(state, b2, t, cfg.e_j))
        worst = max(worst, abs(direct - closed))
    return worst <= 1e-12, f"max norm diff {worst:.3e} (tol 1e-12)"


def _check_bloch_supremum(cfg: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        b2 = float(rng.uniform(1e-4, 1.5))
        t = float(rng.uniform(0.05, 2.0))
        bound = float(max_decoherence(b2))
        scanned, _, _ = bloch_supremum_scan(b2, t, cfg.e_j)
        worst = max(worst, abs(scanned - bound))
    return worst <= 1e-6, f"max |scan - bound| {worst:.3e} (tol 1e-6)"


def _check_split_order(cfg: RunConfig) -> tuple[bool, str]:
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

    run("discrete-vs-continuum-b2", _check_discrete_vs_continuum, cfg)
    run("pure-dephasing-oracle", _check_pure_dephasing_oracle, cfg, args.corrupt)
    run("closed-vs-influence-sum", _check_closed_vs_influence_sum, cfg, rng)
    run("norm-pipeline", _check_norm_pipeline, cfg, rng)
    run("bloch-supremum", _check_bloch_supremum, cfg, rng)
    run("split-order", _check_split_order, cfg)

    all_pass = all(c["passed"] for c in checks)
    out = args.out or "verify.json"
    payload = {
        "version": __version__,
        "convention": CUTOFF_CONVENTION,
        "config": cfg.echo(),
        "corrupt": args.corrupt,
        "checks": checks,
        "all_pass": all_pass,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if all_pass else 3


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1, keeping 2 and 3 for runtime outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--ej", type=float, dest="ej", help="Josephson energy (ueV)")
    sub.add_argument("--temp-mk", type=float, dest="temp_mk", help="temperature (mK)")
    sub.add_argument("--eta", type=float, help="dimensionless Ohmic coupling")
    sub.add_argument("--cutoff", type=float, help="cutoff frequency omega_c (ueV)")
    sub.add_argument("--t-max", type=float, dest="t_max", help="time window (hbar/ueV)")
    sub.add_argument("--samples", type=int, help="number of grid samples")
    sub.add_argument("--threshold", type=float, help="decoherence threshold")
    sub.add_argument(
        "--quad-tol", type=float, dest="quad_tol",
        help="validated and echoed but unused: B2 and C are exact",
    )
    sub.add_argument("--seed", type=int, help="seed for randomized checks")
    sub.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decoq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"decoq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_curve = subs.add_parser("curve", help="decoherence measures on a time grid")
    _add_common(p_curve)
    p_curve.add_argument(
        "--state", action="append", choices=sorted(PRESETS),
        help="initial state preset, repeatable (default: all three)"
    )
    p_curve.add_argument("--log-y", action="store_true", dest="log_y")
    p_curve.set_defaults(func=cmd_curve)

    p_tld = subs.add_parser("tld", help="low-decoherence time report")
    _add_common(p_tld)
    p_tld.set_defaults(func=cmd_tld)

    p_sweep = subs.add_parser("sweep", help="low-decoherence time across an axis")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=sorted(_AXIS_TO_FIELD))
    p_sweep.add_argument("--values", required=True, help="comma separated axis values")
    p_sweep.add_argument("--log-y", action="store_true", dest="log_y")
    p_sweep.add_argument(
        "--check", action="store_true",
        help="fail (exit 3) if tau_ld is not monotone along T or eta"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subs.add_parser("verify", help="run built-in cross-checks")
    _add_common(p_verify)
    p_verify.add_argument(
        "--corrupt", choices=["b2"],
        help="deliberately corrupt a quantity to demonstrate check sensitivity"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "check", False) and args.axis not in ("T", "eta"):
        print("error: --check supports only the T and eta axes", file=sys.stderr)
        return 1
    try:
        cfg, explicit = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.func is cmd_curve and "t_max" not in explicit:
        # short default window for curves; reports keep the long one
        cfg = dataclasses.replace(cfg, t_max=0.5)
    try:
        return args.func(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
