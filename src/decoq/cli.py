"""Command line front end.

Subcommands:

    curve    decoherence measures on a time grid -> CSV + SVG
    tld      low-decoherence time against the idle-gate time -> JSON
    sweep    low-decoherence time across a parameter axis -> CSV + SVG
    verify   built-in cross-checks of the numerical machinery -> JSON

Each subcommand takes only the run settings it reads, as flags spelt in
full (see `decoq COMMAND --help`) and as keys of a flat key = value file
given by --config, and echoes only those into its output; a flag or key
it does not read is a usage error, reported under the subcommand's own
usage line.  A setting takes, lowest precedence first: the
built-in default, the subcommand's own default (curve looks at
t_max = 0.5, not 10), the file, then the flag.

Exit codes: 0 success, 1 usage or configuration error (including a bath
whose B2 or C is not finite in double precision, a repeated initial
state and an output path that cannot be written), 2 no threshold
crossing on the window, 3 a verification or consistency check failed.
"""

import argparse
import math
import os
import sys
import warnings
from collections import namedtuple

from . import __version__, _bind_on_first_use, linspace
from .bath import BathSpec, dephasing_exponent, phase_shift
from .evolution import (
    COMPUTATIONAL,
    NoCrossingError,
    low_decoherence_time,
    max_decoherence,
    pure_state_norm,
)
from .units import TIME_UNIT_S, temperature_to_beta

# names that curve, tld and --version never use, by module: `_load` binds
# them as globals of this module when verify, _write_plot or _write_json
# first needs them, and __getattr__ when they are looked up from outside.
# The code calls them through those globals, so a wrapper set on decoq.cli
# is what runs.
_LATE = {
    "json": ("json",),
    "numpy": ("numpy",),
    ".discrete": ("dephasing_exponent_modes", "discretize_bath"),
    ".states": (
        "QubitState", "bloch_supremum_scan", "deviation", "deviation_norm",
        "deviation_norm_closed_form", "evolve_ideal", "evolve_real", "evolve_real_influence_sum",
        "pure_state", "random_density_matrix",
    ),
    ".oracle": (
        "CompositeSystem", "TruncatedBathMode", "discrete_bath_from_modes", "error_scaling",
        "evolve_exact",
    ),
    ".svgplot": ("Series", "write_svg"),
}
__getattr__ = _bind_on_first_use(globals(), _LATE)


def _load(*modules: str) -> None:
    """Bind the late names of these modules that are not bound yet."""
    for module in modules:
        for name in _LATE[module]:
            if name not in globals():
                __getattr__(name)


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


# RunConfig's fields and their defaults
_DEFAULTS = {
    "e_j": 51.8,
    "temp_mk": 30.0,
    "eta": 1e-6,
    "omega_c": 200.0,
    "s": 1.0,
    "t_max": 10.0,
    "n_samples": 400,
    "threshold": 1e-4,
    "seed": 1234,
    "initial_states": ("point", "line1", "line2"),
}


class RunConfig(namedtuple("RunConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """Physics and numerics knobs; _COMMAND_FIELDS says which each subcommand reads."""

    __slots__ = ()

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.initial_states:
            raise ValueError("at least one initial state is required")
        for name in self.initial_states:
            if name not in PRESETS:
                raise ValueError(
                    f"unknown initial state {name!r}; choose from {sorted(PRESETS)}"
                )
        # each state names a CSV column, and a column must not repeat
        if len(set(self.initial_states)) < len(self.initial_states):
            raise ValueError(
                f"initial states repeat: {', '.join(self.initial_states)}"
            )

    def bath_spec(self) -> BathSpec:
        return BathSpec(
            eta=self.eta,
            omega_c=self.omega_c,
            beta=temperature_to_beta(self.temp_mk),
            s=self.s,
        )

    def echo(self, command: str) -> dict:
        """The fields the subcommand reads, as written into its output."""
        out = {field: getattr(self, field) for field in _COMMAND_FIELDS[command]}
        if "initial_states" in out:
            out["initial_states"] = list(self.initial_states)
        return out


# flag -> (RunConfig field it sets, help); a subcommand takes the flags of
# the fields it reads, and argparse stores each under its field name
_OPTIONS = {
    "--ej": ("e_j", "Josephson energy (ueV)"),
    "--temp-mk": ("temp_mk", "temperature (mK)"),
    "--eta": ("eta", "dimensionless Ohmic coupling"),
    "--cutoff": ("omega_c", "cutoff frequency omega_c (ueV)"),
    "--t-max": ("t_max", "time window (hbar/ueV)"),
    "--samples": ("n_samples", "number of grid samples"),
    "--threshold": ("threshold", "decoherence threshold"),
    "--seed": ("seed", "seed for randomized checks"),
}

_TLD_FIELDS = ("e_j", "temp_mk", "eta", "omega_c", "s", "t_max", "threshold")

# RunConfig fields each subcommand reads: they alone are its flags, its
# config-file keys and its config echo
_COMMAND_FIELDS = {
    "curve": ("e_j", "temp_mk", "eta", "omega_c", "s", "t_max", "n_samples", "initial_states"),
    "tld": _TLD_FIELDS,
    "sweep": _TLD_FIELDS,  # one tld report per axis value
    "verify": ("e_j", "seed"),  # every check runs on its own fixed bath
}

# defaults of one subcommand that differ from RunConfig's: curves look at a
# short window, reports keep the long one
_COMMAND_DEFAULTS = {"curve": {"t_max": 0.5}}

# a field's flag and config-file key take the type of its default
_FIELD_TYPES = {field: type(value) for field, value in RunConfig._field_defaults.items()}


def parse_config_file(path: str, command: str) -> dict:
    """Read a flat key = value file of the subcommand's keys; '#' starts a comment."""
    types = {field: _FIELD_TYPES[field] for field in _COMMAND_FIELDS[command]}
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
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
            if types[key] is tuple:
                overrides[key] = tuple(p.strip() for p in value.split(",") if p.strip())
                continue
            try:
                overrides[key] = types[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return overrides


def build_config(args) -> RunConfig:
    """RunConfig defaults, then the subcommand's, then the config file, then flags."""
    values = RunConfig()._asdict()
    values.update(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        values.update(parse_config_file(args.config, args.command))
    for field in values:
        if getattr(args, field, None) is not None:
            values[field] = getattr(args, field)
    values["initial_states"] = tuple(values["initial_states"])
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _g17(x) -> str:
    return format(float(x), ".17g")


def _metadata_lines(config: dict, kind: str) -> list:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    return [
        f"# decoq {__version__} {kind}",
        f"# convention: {CUTOFF_CONVENTION}",
        f"# config: {pairs}",
    ]


def _write_csv(path: str, config: dict, kind: str, columns, rows) -> None:
    """Metadata comments, header, then rows: floats at .17g, strings as they are."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _metadata_lines(config, kind):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _g17(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _load("json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot(csv_path: str, series, **labels) -> None:
    """SVG next to the CSV; data with nothing finite to plot skips it with a note.

    Each series is a (label, x, y, mode) tuple of svgplot.Series.
    """
    _load(".svgplot")
    out_svg = os.path.splitext(csv_path)[0] + ".svg"
    try:
        write_svg(out_svg, [Series(*s) for s in series], **labels)
    except ValueError as exc:
        print(f"note: skipped {out_svg}: {exc}", file=sys.stderr)
        return
    print(f"wrote {out_svg}")


# ---------------------------------------------------------------- curve

def cmd_curve(cfg: RunConfig, args) -> int:
    spec = cfg.bath_spec()
    times = linspace(0.0, cfg.t_max, cfg.n_samples)
    b2 = [dephasing_exponent(t, spec) for t in times]
    shift = [phase_shift(t, spec) for t in times]
    d = [max_decoherence(b) for b in b2]
    norms = [
        [pure_state_norm(*PRESETS[name], b, t, cfg.e_j) for b, t in zip(b2, times)]
        for name in cfg.initial_states
    ]

    out_csv = args.out or "curve.csv"
    columns = ["t", "b_squared", "c_shift", "D"] + [f"norm_{n}" for n in cfg.initial_states]
    _write_csv(out_csv, cfg.echo("curve"), "curve", columns, zip(times, b2, shift, d, *norms))
    print(f"wrote {out_csv} ({len(times)} samples)")

    series = [("D(t)", times, d, "points")]
    for name, norm in zip(cfg.initial_states, norms):
        series.append((f"norm {name}", times, norm, "line"))
    _write_plot(
        out_csv,
        series,
        title="decoherence measures",
        xlabel="t (hbar/ueV)",
        ylabel="deviation",
        log_y=args.log_y,
    )
    return 0


# ---------------------------------------------------------------- tld

def _tld_report(cfg: RunConfig) -> dict:
    spec = cfg.bath_spec()
    tau_gate_units = 1.0 / cfg.e_j
    tau_gate_ps = tau_gate_units * TIME_UNIT_S / _SECONDS_PER_PS
    report = {
        "version": __version__,
        "convention": CUTOFF_CONVENTION,
        "threshold": cfg.threshold,
        "tau_gate_units": tau_gate_units,
        "tau_gate_ps": tau_gate_ps,
        "reference": {
            "tau_ld_ps": REFERENCE_TAU_LD_PS,
            "tau_gate_ps": REFERENCE_TAU_G_PS,
            "tau_gate_rel_dev": tau_gate_ps / REFERENCE_TAU_G_PS - 1.0,
        },
        "d_at_gate": max_decoherence(dephasing_exponent(tau_gate_units, spec)),
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
        return report
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
    return report


def cmd_tld(cfg: RunConfig, args) -> int:
    report = _tld_report(cfg)
    report["config"] = cfg.echo("tld")
    out = args.out or "tld.json"
    _write_json(out, report)
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
    return 2 if report["no_crossing"] else 0


# ---------------------------------------------------------------- sweep

_AXIS_TO_FIELD = {"T": "temp_mk", "eta": "eta", "E_J": "e_j", "omega_c": "omega_c"}

# tld report keys that sweep writes, in column order, between value and
# status; a key the report holds as None or lacks is NaN
_SWEEP_KEYS = ("tau_ld_units", "tau_ld_ps", "d_at_gate")


def _axis_values(text: str) -> list[float]:
    """--values: two or more comma-separated numbers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r}") from None
    if len(values) < 2:
        raise argparse.ArgumentTypeError("sweep needs at least two axis values")
    return values


def cmd_sweep(cfg: RunConfig, args) -> int:
    field = _AXIS_TO_FIELD[args.axis]
    rows = []
    for value in args.values:
        row_cfg = cfg._replace(**{field: value})
        try:
            row_cfg.validate()
            report = _tld_report(row_cfg)
        except ValueError as exc:
            report, status = {}, f"error: {str(exc).replace(',', ';')}"
        else:
            status = (f"no-crossing: D(t_max)={report['d_at_t_max']:.3e}"
                      if report["no_crossing"] else "ok")
        cells = (math.nan if report.get(key) is None else report[key] for key in _SWEEP_KEYS)
        rows.append((value, *cells, status))

    out_csv = args.out or "sweep.csv"
    _write_csv(out_csv, cfg.echo("sweep"), f"sweep axis={args.axis}",
               ["value", *_SWEEP_KEYS, "status"], rows)
    print(f"wrote {out_csv} ({len(rows)} points)")

    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    _write_plot(
        out_csv,
        [
            ("tau_ld", xs, ys, "line"),
            ("points", xs, ys, "points"),
        ],
        title=f"low-decoherence time vs {args.axis}",
        xlabel=args.axis,
        ylabel="tau_ld (hbar/ueV)",
        log_y=args.log_y,
    )

    if args.check:
        # a point that could not be computed is not checked, so it fails;
        # a point with no crossing has no tau_ld to order and is skipped
        errors = [(value, status) for value, *_, status in rows if status.startswith("error")]
        for value, status in errors:
            print(f"check failed: {args.axis} = {value!r} gives {status}", file=sys.stderr)
        if errors:
            return 3
        # decoherence accumulates faster when the bath is hotter or more
        # strongly coupled, so tau_ld must not grow along these axes
        prev = None
        for _, y in sorted(zip(xs, ys), key=lambda xy: xy[0]):
            if not math.isfinite(y):
                continue
            if prev is not None and y > prev * (1.0 + 1e-9):
                print(
                    f"check failed: tau_ld rises from {prev:.6g} to "
                    f"{y:.6g} along increasing {args.axis}",
                    file=sys.stderr,
                )
                return 3
            prev = y
        print(f"monotonicity check passed along {args.axis}")
    return 0


# ---------------------------------------------------------------- verify

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
    rho0 = QubitState(numpy.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
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
        worst = max(worst, float(numpy.max(numpy.abs(fast.rho - slow.rho))))
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
    times = numpy.geomspace(4e-4, 3e-3, 6)
    result = error_scaling(system, state, temperature_to_beta(30.0), times)
    ok = 2.7 <= result.slope <= 3.3
    return ok, f"fitted slope {result.slope:.3f} (expected within [2.7, 3.3])"


def cmd_verify(cfg: RunConfig, args) -> int:
    _load("numpy", ".discrete", ".states", ".oracle")
    rng = numpy.random.default_rng(cfg.seed)
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


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1, keeping 2 and 3 for runtime outcomes, and
    # are reported by the subcommand whose arguments are wrong, under its
    # own usage line
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        # only the root parser has a command, and it asks for one after the
        # extras, so that an unknown flag before the command is named first
        if getattr(namespace, "command", "") is None:
            self.error("the following arguments are required: command")
        # only sweep takes --check
        if getattr(namespace, "check", False) and namespace.axis not in ("T", "eta"):
            self.error("--check supports only the T and eta axes")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub, command):
    sub.add_argument("--config", help="flat key = value configuration file")
    for flag, (field, help_text) in _OPTIONS.items():
        if field in _COMMAND_FIELDS[command]:
            sub.add_argument(flag, type=_FIELD_TYPES[field], dest=field, help=help_text)
    sub.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decoq", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"decoq {__version__}")
    subs = parser.add_subparsers(dest="command")

    p_curve = subs.add_parser("curve", help="decoherence measures on a time grid",
                              allow_abbrev=False)
    _add_common(p_curve, "curve")
    p_curve.add_argument(
        "--state", action="append", choices=sorted(PRESETS), dest="initial_states",
        help="initial state preset, repeatable (default: all three)"
    )
    p_curve.add_argument("--log-y", action="store_true", dest="log_y")
    p_curve.set_defaults(func=cmd_curve)

    p_tld = subs.add_parser("tld", help="low-decoherence time report", allow_abbrev=False)
    _add_common(p_tld, "tld")
    p_tld.set_defaults(func=cmd_tld)

    p_sweep = subs.add_parser("sweep", help="low-decoherence time across an axis",
                              allow_abbrev=False)
    _add_common(p_sweep, "sweep")
    p_sweep.add_argument("--axis", required=True, choices=sorted(_AXIS_TO_FIELD))
    p_sweep.add_argument("--values", required=True, type=_axis_values,
                         help="comma separated axis values")
    p_sweep.add_argument("--log-y", action="store_true", dest="log_y")
    p_sweep.add_argument(
        "--check", action="store_true",
        help="fail (exit 3) if tau_ld is not monotone along T or eta"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subs.add_parser("verify", help="run built-in cross-checks", allow_abbrev=False)
    _add_common(p_verify, "verify")
    p_verify.add_argument(
        "--corrupt", choices=["b2"],
        help="deliberately corrupt a quantity to demonstrate check sensitivity"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a warning that is shown prints as one line, like note: and error:; the
    # unproved search past t_rise shows each time, so every sweep row that
    # takes it says so, and every other warning keeps the filters in force
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "always", message="D is not known to be monotone", category=RuntimeWarning
        )
        warnings.showwarning = _print_warning
        try:
            return args.func(build_config(args), args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
