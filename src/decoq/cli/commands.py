"""The curve, tld and sweep subcommands, the run settings they read and their writers."""

import math
import os
import sys
from collections import namedtuple

from .. import __version__, linspace
from ..bath import BathSpec
from ..evolution import NoCrossingError, _check_threshold_and_t_max, pure_state_norm
from ..units import TIME_UNIT_S, temperature_to_beta
# decoq.cli binds these on first use; taken from it, a wrapper set there is what runs
from . import (
    _AXIS_TO_FIELD, _COMMAND_DEFAULTS, _COMMAND_FIELDS, _FIELDS, PRESETS, dephasing_exponent,
    low_decoherence_time, max_decoherence, phase_shift,
)

# adopted spectral-density convention, echoed into every output file
CUTOFF_CONVENTION = "J(omega) = eta * omega**s * exp(-omega/omega_c), decaying cutoff"

# benchmark reference values (ps) used only to report relative deviations
REFERENCE_TAU_LD_PS = 49.4
REFERENCE_TAU_G_PS = 12.7
_SECONDS_PER_PS = 1e-12


def _check_gate_e_j(e_j: float):
    """Stricter than the maps' E_J >= 0: the gate time 1/E_J must be a positive double."""
    if not math.isfinite(e_j) or e_j <= 0.0:
        raise ValueError(f"e_j must be positive, got {e_j}")
    if not math.isfinite(1.0 / e_j):
        raise ValueError(f"gate time 1/e_j is not finite in double precision at e_j={e_j}")


class RunConfig(namedtuple("RunConfig", _FIELDS, defaults=[d for d, _, _ in _FIELDS.values()])):
    """Physics and numerics knobs; _COMMAND_FIELDS says which each subcommand reads."""

    __slots__ = ()

    def validate(self):
        _check_gate_e_j(self.e_j)
        self.bath_spec()
        _check_threshold_and_t_max(self.threshold, self.t_max)
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def bath_spec(self) -> BathSpec:
        return BathSpec(eta=self.eta, omega_c=self.omega_c,
                        beta=temperature_to_beta(self.temp_mk), s=self.s)

    def echo(self, command: str) -> dict:
        """The fields the subcommand reads, as written into its output."""
        return {field: getattr(self, field) for field in _COMMAND_FIELDS[command]}


def parse_config_file(path: str, command: str) -> dict:
    """Read a flat key = value file of the subcommand's keys; '#' starts a comment."""
    types = {field: type(_FIELDS[field][0]) for field in _COMMAND_FIELDS[command]}
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
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _write_csv(path: str, config: dict, kind: str, columns, rows) -> None:
    """Metadata comments, header, then rows: floats at .17g, strings as they are."""
    pairs = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# decoq {__version__} {kind}\n# convention: {CUTOFF_CONVENTION}\n"
                 f"# config: {pairs}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else format(float(v), ".17g")
                              for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot(csv_path: str, series, **labels) -> None:
    """SVG next to the CSV; data with nothing finite to plot skips it with a note.

    Each series is a (label, x, y, mode) tuple, as write_svg takes it.
    """
    from . import write_svg

    out_svg = os.path.splitext(csv_path)[0] + ".svg"
    try:
        write_svg(out_svg, series, **labels)
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
        for name in PRESETS
    ]

    out_csv = args.out or "curve.csv"
    columns = ["t", "b_squared", "c_shift", "D"] + [f"norm_{n}" for n in PRESETS]
    _write_csv(out_csv, cfg.echo("curve"), "curve", columns, zip(times, b2, shift, d, *norms))
    print(f"wrote {out_csv} ({len(times)} samples)")

    series = [("D(t)", times, d, "points")]
    for name, norm in zip(PRESETS, norms):
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

def _relaxation_window(cfg: RunConfig, beta: float, tau_gate_units: float) -> dict:
    """The golden-rule window at E_J; null where a value is not a positive normal double.

    The excited state decays at Gamma_down = 2 pi J(E_J) (1 + n) and the
    populations relax at Gamma_1 = 2 pi J(E_J) (1 + 2n), n = 1/expm1(beta E_J),
    so its deviation (Gamma_down/Gamma_1)(1 - e^(-Gamma_1 t)) reaches the
    threshold at tau_M = -log1p(-threshold Gamma_1/Gamma_down)/Gamma_1
    (Makhlin, Schoen & Shnirman, RMP 73, 357 (2001)).
    """
    x = beta * cfg.e_j
    try:
        n = math.exp(-x) / -math.expm1(-x)  # 1/expm1(x), and 0 at beta = inf
        two_pi_j = 2.0 * math.pi * cfg.eta * cfg.e_j**cfg.s * math.exp(-cfg.e_j / cfg.omega_c)
        rate, rate_1 = two_pi_j * (1.0 + n), two_pi_j * (1.0 + 2.0 * n)
        tau = -math.log1p(-cfg.threshold * (1.0 + 2.0 * n) / (1.0 + n)) / rate_1
    except (OverflowError, ZeroDivisionError):
        rate = tau = math.nan
    values = (rate, tau, tau * TIME_UNIT_S / _SECONDS_PER_PS, tau / tau_gate_units)
    if not all(sys.float_info.min <= v < math.inf for v in values):
        values = (None,) * 4
    return dict(zip(("relaxation_rate", "tau_ld_relax_units", "tau_ld_relax_ps",
                     "ratio_relax_over_gate"), values))


def _eta_max(cfg: RunConfig, spec: BathSpec, tau_gate_units: float, b2: float):
    """First double eta with D(tau_g) >= threshold; null unless a positive normal double.

    B2 is linear in eta, so D(tau_g) = threshold at eta L / B2(tau_g),
    L = -log1p(-2 threshold); nextafter steps from there find the first double.
    """
    def reaches(eta: float) -> bool:
        b2_at = dephasing_exponent(tau_gate_units, spec._replace(eta=eta))
        return max_decoherence(b2_at) >= cfg.threshold

    try:
        eta = cfg.eta * -math.log1p(-2.0 * cfg.threshold) / b2
    except ZeroDivisionError:  # B2 = 0: eta = 0, or B2 underflows
        return None
    if not sys.float_info.min <= eta < math.inf:
        return None
    while not reaches(eta):
        eta = math.nextafter(eta, math.inf)
    while reaches(below := math.nextafter(eta, 0.0)):
        eta = below
    return eta if sys.float_info.min <= eta else None


def _tld_report(cfg: RunConfig) -> dict:
    spec = cfg.bath_spec()
    tau_gate_units = 1.0 / cfg.e_j
    tau_gate_ps = tau_gate_units * TIME_UNIT_S / _SECONDS_PER_PS
    b2_gate = dephasing_exponent(tau_gate_units, spec)
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
        "d_at_gate": max_decoherence(b2_gate),
        "budget": {"eta_max": _eta_max(cfg, spec, tau_gate_units, b2_gate)},
    }
    report.update(_relaxation_window(cfg, spec.beta, tau_gate_units))
    relax = report["tau_ld_relax_units"]
    try:
        tau = low_decoherence_time(cfg.threshold, spec, cfg.t_max)
    except NoCrossingError as exc:
        report.update(
            {
                "no_crossing": True,
                "tau_ld_units": None,
                "tau_ld_ps": None,
                "d_at_t_max": exc.d_at_t_max,
                # the dephasing window is known only to pass t_max
                "window_set_by": "relaxation" if relax is not None and relax < cfg.t_max else None,
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
            "window_set_by": "relaxation" if relax is not None and relax < tau else "dephasing",
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

# tld report keys that sweep writes, in column order, between value and
# status; a key the report holds as None or lacks is NaN
_SWEEP_KEYS = ("tau_ld_units", "tau_ld_ps", "d_at_gate")


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

    # a row in error has no tau_ld, and its value (say eta = -1) is not a
    # point of the axis; a row with no crossing keeps its x
    plotted = [row for row in rows if not row[-1].startswith("error")]
    xs = [row[0] for row in plotted]
    ys = [row[1] for row in plotted]
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

    # a point that could not be computed is not checked, so it fails;
    # a point with no crossing has no tau_ld to order and is skipped
    errors = [(value, status) for value, *_, status in rows if status.startswith("error")]
    for value, status in errors:
        print(f"check failed: {args.axis} = {value!r} gives {status}", file=sys.stderr)
    if errors:
        return 3
    # B2(t) = 8 int J(w) w^-2 sin^2(wt/2) coth(beta w/2) dw does not fall
    # as T (coth), eta or omega_c (J at every w) rises, and E_J does not
    # enter it, so tau_ld must not grow along T, eta, E_J or omega_c
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
