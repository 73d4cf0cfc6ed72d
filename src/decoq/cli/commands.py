"""The curve, tld and sweep subcommands, the run settings they read and their writers."""

import math
import os
import sys

from .. import __version__, linspace
from ..bath import BathSpec, _record
from ..evolution import _check_gate_e_j, _check_threshold_and_t_max, idle_window, pure_state_norm
from ..units import _to_ps, temperature_to_beta
# decoq.cli binds these on first use; taken from it, a wrapper set there is what runs
from . import (
    _AXIS_TO_FIELD, _COMMAND_DEFAULTS, _COMMAND_FIELDS, _FIELDS, PRESETS, dephasing_exponent,
    max_decoherence,
)

# adopted spectral-density convention, echoed into every output file
CUTOFF_CONVENTION = "J(omega) = eta * omega**s * exp(-omega/omega_c), decaying cutoff"

# benchmark reference values (ps) used only to report relative deviations
REFERENCE_TAU_LD_PS = 49.4
REFERENCE_TAU_G_PS = 12.7


# a grid and its columns take about 0.6 KB a sample, so the cap is about 0.6 GB
_MAX_SAMPLES = 10**6


class RunConfig(_record("RunConfig", _FIELDS, defaults=[d for d, _, _ in _FIELDS.values()])):
    """Physics and numerics knobs; _COMMAND_FIELDS says which each subcommand reads."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_gate_e_j(self.e_j)
        self.bath_spec()
        _check_threshold_and_t_max(self.threshold, self.t_max)
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.n_samples > _MAX_SAMPLES:
            raise ValueError(f"n_samples must be <= {_MAX_SAMPLES}, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self

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
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of a key
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
    return RunConfig(**values)


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
    """payload as RFC 8259 JSON; a value that is inf or nan is refused before the file opens."""
    import json

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path} not written: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _plot_path(csv_path: str) -> str:
    """The SVG next to the CSV; a CSV path that is that SVG's is refused."""
    out_svg = os.path.splitext(csv_path)[0] + ".svg"
    if out_svg == csv_path:
        raise ValueError(f"--out {csv_path} is the plot's path; give the CSV another extension")
    return out_svg


def _write_plot(out_svg: str, series, **labels) -> None:
    """The SVG at out_svg; data with nothing finite to plot skips it with a note.

    Each series is a (label, x, y, mode) tuple, as write_svg takes it.
    """
    from . import write_svg

    try:
        write_svg(out_svg, series, **labels)
    except ValueError as exc:
        print(f"note: skipped {out_svg}: {exc}", file=sys.stderr)
        return
    print(f"wrote {out_svg}")


# ---------------------------------------------------------------- curve

def cmd_curve(cfg: RunConfig, args) -> int:
    out_csv = args.out or "curve.csv"
    out_svg = _plot_path(out_csv)
    spec = cfg.bath_spec()
    times = linspace(0.0, cfg.t_max, cfg.n_samples)
    b2 = [dephasing_exponent(t, spec) for t in times]
    d = [max_decoherence(b) for b in b2]
    norms = [
        [pure_state_norm(*PRESETS[name], b, t, cfg.e_j) for b, t in zip(b2, times)]
        for name in PRESETS
    ]

    columns = ["t", "b_squared", "D"] + [f"norm_{n}" for n in PRESETS]
    _write_csv(out_csv, cfg.echo("curve"), "curve", columns, zip(times, b2, d, *norms))
    print(f"wrote {out_csv} ({len(times)} samples)")

    series = [("D(t)", times, d, "points")]
    for name, norm in zip(PRESETS, norms):
        series.append((f"norm {name}", times, norm, "line"))
    _write_plot(
        out_svg,
        series,
        title="decoherence measures",
        xlabel="t (hbar/ueV)",
        ylabel="deviation",
        log_y=args.log_y,
    )
    return 0


# ---------------------------------------------------------------- tld

def _window_keys(name: str, ratio: str, tau, tau_g: float) -> dict:
    """A window's three keys: in time units, in ps and over the gate, all null for no window."""
    keys = (f"{name}_units", f"{name}_ps", f"ratio_{ratio}_over_gate")
    return dict(zip(keys, (None,) * 3 if tau is None else (tau, _to_ps(tau), tau / tau_g)))


def _tld_report(cfg: RunConfig) -> dict:
    window = idle_window(cfg.threshold, cfg.bath_spec(), cfg.e_j, cfg.t_max)
    tau_g, tau = window.tau_g, window.tau_ld
    tau_gate_ps = _to_ps(tau_g)
    report = {
        "version": __version__,
        "convention": CUTOFF_CONVENTION,
        "threshold": cfg.threshold,
        "tau_gate_units": tau_g,
        "tau_gate_ps": tau_gate_ps,
        "reference": {
            "tau_ld_ps": REFERENCE_TAU_LD_PS,
            "tau_gate_ps": REFERENCE_TAU_G_PS,
            "tau_gate_rel_dev": tau_gate_ps / REFERENCE_TAU_G_PS - 1.0,
        },
        "d_at_gate": window.d_at_gate,
        "budget": {"eta_max": window.eta_max},
        "relaxation_rate": window.relaxation_rate,
        **_window_keys("tau_ld_relax", "relax", window.tau_relax, tau_g),
        **_window_keys("tau_ld", "ld", tau, tau_g),
        "no_crossing": tau is None,
        "window_set_by": window.window_set_by,
    }
    if tau is None:
        report.update(d_at_t_max=window.d_at_t_max,
                      verdict="D stays below the threshold on the whole window; "
                              "the low-decoherence time exceeds t_max")
    else:
        report["verdict"] = ("low-decoherence window covers the idle gate" if tau >= tau_g
                             else "low-decoherence window is shorter than the idle gate")
        report["reference"]["tau_ld_rel_dev"] = report["tau_ld_ps"] / REFERENCE_TAU_LD_PS - 1.0
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
    out_csv = args.out or "sweep.csv"
    out_svg = _plot_path(out_csv)
    field = _AXIS_TO_FIELD[args.axis]
    rows = []
    for value in args.values:
        try:
            report = _tld_report(cfg._replace(**{field: value}))
        except ValueError as exc:
            report, status = {}, f"error: {str(exc).replace(',', ';')}"
        else:
            status = (f"no-crossing: D(t_max)={report['d_at_t_max']:.3e}"
                      if report["no_crossing"] else "ok")
        cells = (math.nan if report.get(key) is None else report[key] for key in _SWEEP_KEYS)
        rows.append((value, *cells, status))

    _write_csv(out_csv, cfg.echo("sweep"), f"sweep axis={args.axis}",
               ["value", *_SWEEP_KEYS, "status"], rows)
    print(f"wrote {out_csv} ({len(rows)} points)")

    # a row in error has no tau_ld, and its value (say eta = -1) is not a
    # point of the axis; a row with no crossing keeps its x
    plotted = [row for row in rows if not row[-1].startswith("error")]
    xs = [row[0] for row in plotted]
    ys = [row[1] for row in plotted]
    _write_plot(
        out_svg,
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
