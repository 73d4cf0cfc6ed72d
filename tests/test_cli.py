import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from decoq import __version__
from decoq import linspace
from decoq.bath import dephasing_exponent
from decoq.cli import (
    _OPTIONS,
    PRESETS,
    RunConfig,
    build_config,
    build_parser,
    main,
    parse_config_file,
)
from decoq.evolution import max_decoherence
from decoq.units import TIME_UNIT_S, temperature_to_beta

# a superohmic bath whose D crosses the threshold past t_rise, falls back
# below it and crosses again before t_max
HUMP_SETTINGS = {
    "s": 2.627190751706458,
    "temp_mk": 69.74256994832315,
    "omega_c": 44.12905023409275,
    "eta": 1.0598897093789957e-09,
    "t_max": 0.27958368503951514,
    "threshold": 9.794163274970207e-07,
}
HUMP_CONFIG = "".join(f"{key} = {value!r}\n" for key, value in HUMP_SETTINGS.items())


def read_csv(path):
    """Split a CSV written by the CLI into (metadata, header, rows)."""
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.e_j == 51.8
        assert cfg.initial_states == ("point", "line1", "line2")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("e_j", 0.0),
            ("temp_mk", -1.0),
            ("eta", -1e-9),
            ("omega_c", 0.0),
            ("s", 0.5),
            ("threshold", 0.5),
            ("n_samples", 1),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        cfg = RunConfig()._replace(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_bath_spec_uses_temperature(self):
        spec = RunConfig(temp_mk=30.0).bath_spec()
        assert spec.beta == pytest.approx(temperature_to_beta(30.0), rel=1e-14)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "eta = 2e-6\n"
            "temp_mk = 60  # inline comment\n"
        )
        parser = build_parser()
        args = parser.parse_args(["tld", "--config", str(path), "--temp-mk", "30"])
        cfg = build_config(args)
        assert cfg.eta == 2e-6  # file beats default
        assert cfg.temp_mk == 30.0  # flag beats file
        assert cfg.t_max == 10.0  # reports keep the long window

        states = tmp_path / "states.cfg"
        states.write_text("initial_states = point, line2\n")
        args = parser.parse_args(["curve", "--config", str(states)])
        assert build_config(args).initial_states == ("point", "line2")
        seed = tmp_path / "seed.cfg"
        seed.write_text("seed = 7\n")
        assert build_config(parser.parse_args(["verify", "--config", str(seed)])).seed == 7

        # curve's own window beats the RunConfig default, the file beats
        # that, and the flag beats the file
        window = tmp_path / "window.cfg"
        window.write_text("t_max = 2\n")
        for argv, t_max in (
            (["curve"], 0.5),
            (["curve", "--config", str(path)], 0.5),
            (["curve", "--config", str(window)], 2.0),
            (["curve", "--config", str(window), "--t-max", "3"], 3.0),
        ):
            assert build_config(parser.parse_args(argv)).t_max == t_max, argv

    # the flags each subcommand takes: --config, --out, the flags of the
    # RunConfig fields it reads, and its own
    COMMAND_FLAGS = {
        "curve": "--ej --temp-mk --eta --cutoff --t-max --samples --state --log-y",
        "tld": "--ej --temp-mk --eta --cutoff --t-max --threshold",
        "sweep": "--ej --temp-mk --eta --cutoff --t-max --threshold "
                 "--axis --values --log-y --check",
        "verify": "--ej --seed --corrupt",
    }
    # the config-file keys each subcommand takes
    COMMAND_KEYS = {
        "curve": "e_j temp_mk eta omega_c s t_max n_samples initial_states",
        "tld": "e_j temp_mk eta omega_c s t_max threshold",
        "sweep": "e_j temp_mk eta omega_c s t_max threshold",
        "verify": "e_j seed",
    }

    def test_flags_store_under_config_fields(self, tmp_path, capsys):
        # a subcommand takes, as flags and as file keys, the fields it reads
        # and no others: `verify --temp-mk 300` must not run on a bath it
        # ignores and then echo that bath
        parser = build_parser()
        config = tmp_path / "run.cfg"
        for command, flags in self.COMMAND_FLAGS.items():
            argv = [command] + {"sweep": ["--axis", "T", "--values", "1,2"]}.get(command, [])
            assert main([command, "--help"]) == 0
            shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
            assert shown == {"--config", "--out", *flags.split()}, command
            for flag, (field, _) in _OPTIONS.items():
                if flag in shown:
                    assert getattr(parser.parse_args(argv + [flag, "3"]), field) == 3
                else:
                    assert main(argv + [flag, "3"]) == 1, (command, flag)
                    last = capsys.readouterr().err.splitlines()[-1]
                    assert last.startswith("error: ") and flag in last

            keys = self.COMMAND_KEYS[command].split()
            for field, default in RunConfig._field_defaults.items():
                config.write_text(f"{field} = {'point' if type(default) is tuple else 3}\n")
                if field in keys:
                    assert field in parse_config_file(str(config), command)
                else:
                    assert main(argv + ["--config", str(config)]) == 1, (command, field)
                    last = capsys.readouterr().err.splitlines()[-1]
                    assert last == f"error: {config}:1: unknown key {field!r} for {command}"
            assert RunConfig().echo(command).keys() == set(keys)
        args = parser.parse_args(["curve", "--state", "line1", "--state", "point"])
        assert build_config(args).initial_states == ("line1", "point")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling = 1e-6\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(path), "tld")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta 1e-6\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config_file(str(path), "tld")

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta = fast\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config_file(str(path), "tld")

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["tld", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1


class TestCurveCommand:
    def test_csv_schema_and_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--samples", "20", "--t-max", "0.4", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta[0] == f"# decoq {__version__} curve"
        assert any("convention" in line for line in meta)
        assert header == [
            "t", "b_squared", "c_shift", "D", "norm_point", "norm_line1", "norm_line2",
        ]
        assert len(rows) == 20
        # full-precision round trip: re-deriving B^2 at a parsed t must
        # reproduce the stored value bit for bit
        cfg = RunConfig()
        t = float(rows[7][0])
        assert float(rows[7][1]) == dephasing_exponent(t, cfg.bath_spec())
        # D column is consistent with b_squared (expm1 vs exp costs a few
        # digits at tiny exponents, hence the loose relative band)
        b2 = float(rows[7][1])
        assert float(rows[7][3]) == pytest.approx(0.5 * (1 - math.exp(-b2)), rel=1e-8, abs=0.0)
        assert (tmp_path / "curve.svg").exists()

    def test_hot_bath_long_window(self, tmp_path):
        # at 300 mK adaptive quadrature used to raise for every t >= 100
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--temp-mk", "300", "--t-max", "100", "--samples", "2", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_superohmic_hot_bath_long_window(self, tmp_path):
        # s = 2 at 300 mK and omega_c = 1e4: adaptive quadrature used to
        # raise here and the command exited 2
        config = tmp_path / "s2.cfg"
        config.write_text("s = 2\n")
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--config", str(config), "--temp-mk", "300", "--cutoff", "1e4",
             "--t-max", "1000", "--samples", "2", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["curve", "--samples", "12", "--out", str(a)]) == 0
        assert main(["curve", "--samples", "12", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_state_subset(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["curve", "--samples", "8", "--state", "line2", "--out", str(out)]) == 0
        _, header, _ = read_csv(out)
        assert header == ["t", "b_squared", "c_shift", "D", "norm_line2"]

    def test_svg_has_series(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["curve", "--samples", "8", "--out", str(out)])
        svg = (tmp_path / "c.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "circle" in svg

    def test_skipped_plot_writes_nothing(self, tmp_path, capsys):
        # at eta = 0 every D and norm is 0, which a log axis cannot show:
        # the plot is skipped, and no SVG is created or truncated
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        argv = ["curve", "--eta", "0", "--log-y", "--samples", "8", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err.startswith(f"note: skipped {svg}")
        assert out.exists() and not svg.exists()
        svg.write_text("<svg>an earlier plot</svg>")
        assert main(argv) == 0
        assert svg.read_text() == "<svg>an earlier plot</svg>"

    def test_uncoupled_bath_plots_flat_zero(self, tmp_path):
        # at eta = 0 every D is 0, and a linear axis pads the flat range
        out = tmp_path / "curve.csv"
        assert main(["curve", "--eta", "0", "--samples", "8", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert {float(r[header.index("D")]) for r in rows} == {0.0}
        svg = (tmp_path / "curve.svg").read_text()
        y_labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
        assert y_labels == ["-0.5", "-0.25", "0", "0.25", "0.5"]


class TestTldCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "tld.json"
        code = main(["tld", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["no_crossing"] is False
        assert report["tau_ld_units"] > 0.0
        assert report["tau_ld_ps"] == pytest.approx(
            report["tau_ld_units"] * TIME_UNIT_S * 1e12, rel=1e-12
        )
        # gate time for the default junction: hbar/E_J with E_J = 51.8 ueV
        assert report["tau_gate_ps"] == pytest.approx(12.7068, abs=1e-3)
        assert "tau_ld_rel_dev" in report["reference"]
        assert report["config"]["e_j"] == 51.8

    def test_long_window_matches_default(self, tmp_path):
        # adaptive quadrature used to fail inside t <= 1000 and exit 2
        reports = []
        for extra in ([], ["--t-max", "1000"]):
            out = tmp_path / f"tld{len(extra)}.json"
            assert main(["tld", *extra, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        default, long = (r["tau_ld_units"] for r in reports)
        # D is monotone at s = 1, so both windows are the first double at
        # the threshold, although the two bisections probe different points
        assert long == default

    def test_astronomical_window_matches_default(self, tmp_path):
        # omega_c t reaches 2e302 at t_max = 1e300, where (omega_c t)^2
        # overflows; log(1 + r^2)/2 is log r there, and B2 stays finite
        out = tmp_path / "tld.json"
        assert main(["tld", "--t-max", "1e300", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tau_ld_units"] == 5.8583302660491405

    def test_tiny_crossing_is_the_first_double(self, tmp_path):
        # at s = 80 B2 ~ 3.5e299 t^2, so D reaches 1e-4 near t = 2.4e-152;
        # the window must still be the first double at the threshold
        config = tmp_path / "s80.cfg"
        config.write_text("s = 80\n")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        tau = report["tau_ld_units"]
        spec = RunConfig(s=80.0).bath_spec()
        d = lambda t: float(max_decoherence(dephasing_exponent(t, spec)))  # noqa: E731
        assert d(tau) >= 1e-4 > d(math.nextafter(tau, 0.0))
        assert tau == 2.404047425476015e-152

    def test_crossing_before_the_first_peak(self, tmp_path):
        # at s = 3 D peaks near omega_c t = tan(pi/3) and then falls to
        # 8.0e-5 by t_max, below the threshold it crossed on the way up
        config = tmp_path / "s3.cfg"
        config.write_text("s = 3\neta = 1e-9\nthreshold = 8.5e-5\nt_max = 1000\n")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        spec = RunConfig(s=3.0, eta=1e-9).bath_spec()
        d = lambda t: float(max_decoherence(dephasing_exponent(t, spec)))  # noqa: E731
        assert d(1000.0) < 8.5e-5
        tau = report["tau_ld_units"]
        assert d(tau) >= 8.5e-5 > d(math.nextafter(tau, 0.0))
        assert tau == 0.005796217996904163
        assert report["verdict"] == "low-decoherence window is shorter than the idle gate"

    def test_first_crossing_past_a_hump(self, tmp_path, capsys):
        # past t_rise = 0.0576 D reaches the threshold at 0.063, dips to
        # 9.759e-7 near t = 0.11 and rises again before t_max; only the
        # grid past t_rise finds the first crossing, and it says so in one
        # warning: line
        config = tmp_path / "hump.cfg"
        config.write_text(HUMP_CONFIG)
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: D is not known to be monotone past t_rise=5.756980e-02 at "
            "s=2.627190751706458; bisecting the first cell of a 2049-point grid that "
            "reaches the threshold"
        ]
        tau = json.loads(out.read_text())["tau_ld_units"]
        assert tau == 0.0630166818734783
        cfg = RunConfig(**HUMP_SETTINGS)
        spec, threshold = cfg.bath_spec(), cfg.threshold
        d = lambda t: float(max_decoherence(dephasing_exponent(t, spec)))  # noqa: E731
        assert d(tau) >= threshold > d(math.nextafter(tau, 0.0))
        assert min(d(t) for t in linspace(tau, cfg.t_max, 200)) < threshold
        assert all(d(t) < threshold for t in linspace(0.0, tau, 20000)[:-1])

    def test_uncoupled_bath_exits_two(self, tmp_path):
        out = tmp_path / "tld.json"
        code = main(["tld", "--eta", "0", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["no_crossing"] is True
        assert report["tau_ld_units"] is None
        assert report["d_at_t_max"] == 0.0


class TestSweepCommand:
    def test_temperature_sweep_with_failures_recorded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--axis", "T", "--values", "0,10,30,100",
                "--check", "--out", str(out),
            ]
        )
        # the rows are written whole; the T = 0 error row then fails --check
        assert code == 3
        _, header, rows = read_csv(out)
        keys = ["tau_ld_units", "tau_ld_ps", "d_at_gate"]
        assert header == ["value", *keys, "status"]
        assert len(rows) == 4
        by_value = {float(r[0]): r for r in rows}
        # T = 0 is not a valid bath: its row is an error with no numbers
        assert by_value[0.0][1:] == ["nan", "nan", "nan",
                                     "error: temperature must be positive and finite; got 0.0"]
        # every other row carries the numbers tld reports at that value
        for value in (10.0, 30.0, 100.0):
            report_path = tmp_path / f"tld_{value:g}.json"
            main(["tld", "--temp-mk", by_value[value][0], "--out", str(report_path)])
            report = json.loads(report_path.read_text())
            assert by_value[value][1:4] == [
                "nan" if report[key] is None else format(report[key], ".17g") for key in keys
            ]
        # the coldest point never crosses inside the default window and
        # must be recorded as such, not crash the sweep
        assert by_value[10.0][4].startswith("no-crossing")
        assert math.isnan(float(by_value[10.0][1]))
        # D at the gate time is known without a crossing and is written
        spec = RunConfig(temp_mk=10.0).bath_spec()
        expected = max_decoherence(dephasing_exponent(1.0 / 51.8, spec))
        assert float(by_value[10.0][3]) == expected
        assert by_value[30.0][4] == "ok"
        assert float(by_value[100.0][1]) < float(by_value[30.0][1])

    def test_check_fails_on_error_rows(self, tmp_path, capsys):
        # an axis value that could not be computed is a point the check
        # did not make; a value with no crossing has no tau_ld to order
        out = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--axis", "T", "--check", "--out", out, "--values"]
        assert main(argv + ["0,10,30,-5,100"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "check failed: T = 0.0 gives error: temperature must be positive and finite; got 0.0",
            "check failed: T = -5.0 gives error: temperature must be positive and finite; "
            "got -5.0",
        ]
        assert main(argv + ["10,30,100"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "monotonicity check passed along T"

    def test_check_requires_supported_axis(self, capsys):
        assert main(["sweep", "--axis", "E_J", "--values", "40,60", "--check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: decoq sweep ")
        assert err.splitlines()[-1] == "error: --check supports only the T and eta axes"

    def test_bad_values_exit_one(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "10;20"]) == 1
        assert main(["sweep", "--axis", "T", "--values", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: decoq sweep ")
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: argument --values: could not parse '10;20'",
            "error: argument --values: sweep needs at least two axis values",
        ]

    def test_eta_monotonicity_check_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--axis", "eta", "--values", "1e-5,1e-4,1e-3",
                "--check", "--out", str(out),
            ]
        )
        assert code == 0

    def test_every_row_past_t_rise_warns(self, tmp_path, capsys):
        # E_J does not move tau_ld, so both rows bisect the same grid cell
        # past t_rise and raise the same warning; each row prints it
        config = tmp_path / "hump.cfg"
        config.write_text(HUMP_CONFIG)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(config), "--axis", "E_J", "--values", "20,51.8"]
        assert main(argv + ["--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("warning: D is not known to be monotone past t_rise=")
                   for line in err)

    def test_other_warnings_keep_the_suites_filter(self, monkeypatch, tmp_path):
        # filterwarnings = error is in force here; main repeats only the
        # past-t_rise warning, so any other one still fails the run
        import decoq.cli

        real = decoq.cli.low_decoherence_time

        def noisy(*args, **kwargs):
            warnings.warn("not expected", UserWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(decoq.cli, "low_decoherence_time", noisy)
        argv = ["sweep", "--axis", "T", "--values", "10,30", "--out", str(tmp_path / "s.csv")]
        with pytest.raises(UserWarning, match="not expected"):
            main(argv)

    def test_other_warnings_keep_pythons_defaults(self, tmp_path):
        # under Python's own filters a UserWarning shows once per place as
        # one warning: line, and a DeprecationWarning raised in decoq
        # (stacklevel 2: the caller in decoq.cli) stays hidden
        script = (
            "import io, sys, warnings\n"
            "import decoq.cli as cli\n"
            "real = cli.low_decoherence_time\n"
            "def noisy(*args, **kwargs):\n"
            "    warnings.warn('old', DeprecationWarning, stacklevel=2)\n"
            "    warnings.warn('odd', UserWarning, stacklevel=2)\n"
            "    return real(*args, **kwargs)\n"
            "cli.low_decoherence_time = noisy\n"
            "sys.stderr = io.StringIO()\n"
            f"code = cli.main(['sweep', '--axis', 'T', '--values', '10,30,100', "
            f"'--out', {str(tmp_path / 's.csv')!r}])\n"
            "print(code, sys.stderr.getvalue().splitlines())\n"
        )
        assert run_python(script).splitlines()[-1] == "0 ['warning: odd']"


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "discrete-vs-continuum-b2",
            "pure-dephasing-oracle",
            "closed-vs-influence-sum",
            "norm-pipeline",
            "bloch-supremum",
            "split-order",
        }

    def test_corrupted_exponent_is_caught(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--corrupt", "b2", "--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["pure-dephasing-oracle"]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and "'frobnicate'" in last

    def test_bad_flag_value(self, capsys):
        assert main(["tld", "--ej", "minus-five"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and "--ej" in last and "'minus-five'" in last

    @pytest.mark.parametrize(
        "argv",
        [["tld", "--thr", "2e-4"], ["curve", "--threshold", "1e-3"]],
        ids=["abbreviated-flag", "flag-of-another-subcommand"],
    )
    def test_unknown_flag_is_reported_by_the_subcommand(self, tmp_path, capsys, argv):
        # flags are spelt in full, and the subcommand's usage line shows
        # the flags it does take
        out = tmp_path / "out.dat"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: decoq {argv[0]} ")
        assert err.splitlines()[-1] == f"error: unrecognized arguments: {' '.join(argv[1:])}"
        assert not out.exists()

    def test_invalid_config_value(self):
        assert main(["tld", "--ej", "-5"]) == 1

    def test_unrepresentable_bath_exits_one(self, tmp_path, capsys):
        # omega_c^(s-1) = 1e316 overflows a double; the run ends with one
        # error line, not a traceback
        config = tmp_path / "s80.cfg"
        config.write_text("s = 80\nomega_c = 1e4\n")
        assert main(["tld", "--config", str(config), "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: B2 is not finite in double precision at s=80.0, "
                                 "omega_c=10000.0, t=")

    def test_removed_quad_tol_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "old.cfg"
        config.write_text("quad_tol = 1e-8\n")
        out = str(tmp_path / "t.json")
        assert main(["tld", "--quad-tol", "1e-8", "--out", out]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and "--quad-tol" in last
        assert main(["tld", "--config", str(config), "--out", out]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and "'quad_tol'" in last
        assert not os.path.exists(out)

    def test_repeated_state_exits_one(self, tmp_path, capsys):
        # each state is a CSV column; a repeat would write a duplicate header
        config = tmp_path / "dup.cfg"
        config.write_text("initial_states = point, line1, point\n")
        out = tmp_path / "c.csv"
        assert main(["curve", "--state", "point", "--state", "point", "--out", str(out)]) == 1
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: initial states repeat: point, point",
                       "error: initial states repeat: point, line1, point"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--samples", "4"],
            ["tld"],
            ["sweep", "--axis", "T", "--values", "30,100"],
            ["verify"],
        ],
        ids=["curve", "tld", "sweep", "verify"],
    )
    def test_unwritable_output_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.dat"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    def test_unknown_flag_before_the_command_is_named(self, capsys):
        # the flag is reported before the missing command
        assert main(["--vers"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: decoq [-h] [--version] {curve,tld,sweep,verify} ...")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --vers"
        assert main([]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: the following arguments are required: command"
        )

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_presets_cover_pole_and_equator(self):
        assert PRESETS["point"][0] == 0.0
        assert PRESETS["line2"][0] == pytest.approx(math.pi / 2.0)


def run_python(script):
    """Run script in a fresh interpreter that imports decoq from src/; its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyImport:
    def test_runs_do_not_load_scipy(self, tmp_path):
        # decoq runs on numpy alone, the s != 1 kernel included; curve, tld
        # and sweep run on math alone, and only verify imports numpy
        config = tmp_path / "s2.cfg"
        config.write_text("s = 2\n")
        script = (
            "import sys, warnings\n"
            "def scipy_loaded():\n"
            "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "def numpy_run():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
            "import decoq\n"
            "loaded = [scipy_loaded()]\n"
            "import decoq.cli\n"
            "ran = {'import': numpy_run()}\n"
            "from decoq.cli import RunConfig, main\n"
            "from decoq.evolution import low_decoherence_time\n"
            f"out = {str(tmp_path)!r} + '/'\n"
            f"s2 = ['--config', {str(config)!r}]\n"
            "for name, argv, code in (\n"
            "    ('curve s=1', ['curve', '--log-y'], 0),\n"
            "    ('curve s=2', ['curve', *s2], 0),\n"
            "    ('tld s=2', ['tld', *s2], 0),\n"
            "    ('tld no crossing', ['tld', '--eta', '0'], 2),\n"
            "    ('sweep --check', ['sweep', '--axis', 'T', '--values', '10,30,100',\n"
            "                       '--check'], 0),\n"
            "):\n"
            "    assert main(argv + ['--out', out + name.replace(' ', '_')]) == code, name\n"
            "    loaded.append(scipy_loaded())\n"
            "    ran[name] = numpy_run()\n"
            f"hump = RunConfig(**{HUMP_SETTINGS!r})\n"
            "with warnings.catch_warnings(record=True):\n"
            "    warnings.simplefilter('always')\n"
            "    low_decoherence_time(hump.threshold, hump.bath_spec(), hump.t_max)\n"
            "ran['grid past t_rise'] = numpy_run()\n"
            "print('numpy ran:', {k: v for k, v in ran.items() if v})\n"
            "print('scipy loaded:', loaded)\n"
            "assert main(['verify', '--out', out + 'verify.json']) == 0\n"
            "print('verify ran numpy:', 'numpy.linalg' in sys.modules)\n"
        )
        report = [
            line for line in run_python(script).splitlines()
            if line.startswith(("numpy ran:", "scipy loaded:", "verify ran numpy:"))
        ]
        assert report == [
            "numpy ran: {}",
            "scipy loaded: [False, False, False, False, False, False]",
            "verify ran numpy: True",
        ]

    def test_package_import_loads_no_submodule(self):
        script = (
            "import sys\n"
            "import decoq\n"
            "print(sorted(m for m in sys.modules if m.startswith('decoq.')))\n"
        )
        assert run_python(script).strip() == "[]"

    # which of these modules a launch loads
    WATCHED = (
        "decoq.discrete", "decoq.oracle", "decoq.states", "decoq.svgplot", "json", "numpy",
        "numpy.linalg",
    )

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (["--version"], []),
            (["tld"], ["json"]),
            (["tld", "--config", "s3.cfg"], ["json"]),
            (["tld", "--config", "hump.cfg"], ["json"]),
            (["curve"], ["decoq.svgplot"]),
            (["sweep", "--axis", "T", "--values", "10,30"], ["decoq.svgplot"]),
            (["verify"], [
                "decoq.discrete", "decoq.oracle", "decoq.states", "json", "numpy", "numpy.linalg",
            ]),
        ],
        ids=["version", "tld", "tld-s3", "tld-hump", "curve", "sweep", "verify"],
    )
    def test_launch_loads_only_what_it_runs(self, tmp_path, argv, loaded):
        (tmp_path / "s3.cfg").write_text("s = 3\n")
        (tmp_path / "hump.cfg").write_text(HUMP_CONFIG)
        script = (
            "import os, sys\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "from decoq.cli import main\n"
            f"assert main({argv!r}) in (0, 2)\n"
            f"print(sorted(set(sys.modules) & set({self.WATCHED!r})))\n"
        )
        assert run_python(script).splitlines()[-1] == repr(loaded)

    @pytest.mark.parametrize("module", ["decoq.cli", "decoq.oracle"])
    def test_import_loads_no_dataclasses(self, module):
        # records are validated named tuples and svgplot escapes SVG text
        # itself: dataclasses drags inspect, ast, dis and tokenize into
        # every launch, and html its entity table.  numpy's own import loads
        # inspect, so the oracle, which imports numpy, is measured after it
        heavy = ("dataclasses", "inspect", "html")
        script = (
            "import sys\n"
            f"{'import numpy' if module == 'decoq.oracle' else ''}\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))\n"
        )
        assert run_python(script).strip() == "[]"

    def test_cli_import_skips_network_stack(self):
        # svgplot escapes SVG text itself, not with xml.sax.saxutils, which
        # drags urllib.request, http.client, email and ssl into every launch
        heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl")
        script = (
            "import sys\n"
            "import decoq.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
        )
        assert run_python(script).strip() == "[]"


# decoq.__all__ when the package imported every submodule eagerly
PUBLIC_NAMES = [
    "BathSpec", "BathTruncationWarning", "COMPUTATIONAL", "CompositeSystem",
    "DeviationOperator", "DimensionCapError", "DiscreteBath", "EIGENBASIS",
    "ErrorScalingResult", "HBAR_UEV_S", "KB_UEV_PER_K", "NoCrossingError", "QubitState",
    "SplitComparison", "TIME_UNIT_S", "TruncatedBathMode", "basis_change",
    "bloch_supremum_scan", "coth", "dephasing_exponent", "dephasing_exponent_modes",
    "deviation", "deviation_norm", "deviation_norm_closed_form", "discretize_bath",
    "error_scaling", "evolve_exact", "evolve_ideal", "evolve_real",
    "evolve_real_influence_sum", "evolve_split", "gate_unitary", "influence_exponent",
    "low_decoherence_time", "max_decoherence", "phase_shift", "phase_shift_modes",
    "pure_state", "pure_state_norm", "random_density_matrix", "spectral_density",
    "split_vs_closed_form", "temperature_to_beta", "thermal_bath_state",
]

# names the tests and the benchmark's oracle job import from decoq.evolution
EVOLUTION_NAMES = [
    "COMPUTATIONAL", "EIGENBASIS", "DeviationOperator", "NoCrossingError", "QubitState",
    "_bisect", "bloch_supremum_scan", "deviation", "deviation_norm",
    "deviation_norm_closed_form", "evolve_ideal", "evolve_real", "evolve_real_influence_sum",
    "low_decoherence_time", "max_decoherence", "pure_state", "pure_state_norm",
    "random_density_matrix",
]

# names the benchmark's tracer looks up on each module and wraps
TRACED_NAMES = {
    "decoq.cli": [
        "dephasing_exponent", "phase_shift", "dephasing_exponent_modes", "discretize_bath",
        "low_decoherence_time", "max_decoherence", "deviation_norm_closed_form", "evolve_real",
        "evolve_ideal", "evolve_real_influence_sum", "deviation", "deviation_norm",
        "bloch_supremum_scan", "evolve_exact", "error_scaling", "write_svg",
    ],
    "decoq.evolution": ["dephasing_exponent"],
    "decoq.oracle": [
        "dephasing_exponent_modes", "phase_shift_modes", "evolve_real", "gate_unitary",
        "basis_change",
    ],
}


class TestPublicNames:
    def test_all_is_unchanged_and_each_name_is_its_home_modules(self):
        import decoq

        assert decoq.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            obj = getattr(decoq, name)
            home = getattr(obj, "__module__", None)
            if home is not None and home.startswith("decoq."):
                assert obj is getattr(sys.modules[home], name), name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from decoq import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES

    def test_names_resolve_in_a_fresh_interpreter(self):
        # each lookup is the first one, so it goes through a module __getattr__
        script = (
            "import sys\n"
            "import decoq\n"
            "from decoq import oracle\n"
            "print(oracle.__name__)\n"
            "import decoq.evolution as evolution\n"
            f"print([n for n in {EVOLUTION_NAMES!r} if not hasattr(evolution, n)])\n"
            "import decoq.states as states\n"
            "print(evolution.QubitState is states.QubitState is decoq.QubitState)\n"
            "import decoq.cli as cli\n"
            f"for module, names in {TRACED_NAMES!r}.items():\n"
            "    print(module, [n for n in names if not hasattr(sys.modules[module], n)])\n"
            "print(cli.evolve_real is states.evolve_real, cli.write_svg.__module__)\n"
            "import decoq.discrete as discrete\n"
            "print(oracle.dephasing_exponent_modes is discrete.dephasing_exponent_modes)\n"
        )
        assert run_python(script).splitlines() == [
            "decoq.oracle", "[]", "True", "decoq.cli []", "decoq.evolution []",
            "decoq.oracle []", "True decoq.svgplot", "True",
        ]

    @pytest.mark.parametrize("module", ["decoq", "decoq.evolution", "decoq.cli"])
    def test_unknown_name_raises_attribute_error(self, module):
        import importlib

        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(importlib.import_module(module), "no_such_name")
