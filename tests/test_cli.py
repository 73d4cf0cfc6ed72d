import ast
import contextlib
import fnmatch
import importlib.util
import io
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
from hypothesis import example, given, settings, strategies as st

from decoq import __version__
from decoq import cli, linspace
from decoq.bath import dephasing_exponent
from decoq.cli import (
    _COMMAND_FIELDS,
    _FIELDS,
    PRESETS,
    RunConfig,
    build_config,
    build_parser,
    commands,
    main,
    parse_config_file,
)
from decoq import evolution
from decoq.evolution import idle_window, low_decoherence_time, max_decoherence
from decoq.units import TIME_UNIT_S, _to_ps, temperature_to_beta
from golden.cases import BATHS, CONFIGS, GOLDEN


def write_config(tmp_path, name):
    """The bath name of tests/golden/cases.py as its config file in tmp_path."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(CONFIGS[path.name])
    return path


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
        assert RunConfig().e_j == 51.8

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("e_j", 0.0, "e_j must be positive, got 0.0"),
            ("temp_mk", -1.0, "temperature must be positive and finite, got -1.0"),
            ("eta", -1e-9, "eta must be finite and >= 0, got -1e-09"),
            ("omega_c", 0.0, "omega_c must be finite and > 0, got 0.0"),
            ("s", 0.5, "s must be finite and >= 1, got 0.5: "),
            ("threshold", 0.5, "threshold must lie in (0, 1/2), got 0.5"),
            ("n_samples", 1, "n_samples must be >= 2, got 1"),
            ("n_samples", 10**6 + 1, "n_samples must be <= 1000000, got 1000001"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_rejects_bad_field(self, field, value, message):
        # at construction, and so through _replace too, as build_config and sweep make them
        for make in (RunConfig, RunConfig()._replace):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                make(**{field: value})

    def test_bath_spec_uses_temperature(self):
        spec = RunConfig(temp_mk=30.0).bath_spec()
        assert spec.beta == pytest.approx(temperature_to_beta(30.0), rel=1e-14, abs=0.0)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "eta = 2e-6\n"
            "temp_mk = 60  # inline comment\n"
        )
        args = build_parser("tld").parse_args(["--config", str(path), "--temp-mk", "30"])
        cfg = build_config(args)
        assert cfg.eta == 2e-6  # file beats default
        assert cfg.temp_mk == 30.0  # flag beats file
        assert cfg.t_max == 10.0  # reports keep the long window

        seed = tmp_path / "seed.cfg"
        seed.write_text("seed = 7\n")
        assert build_config(build_parser("verify").parse_args(["--config", str(seed)])).seed == 7

        # curve's own window beats the RunConfig default, the file beats
        # that, and the flag beats the file
        window = tmp_path / "window.cfg"
        window.write_text("t_max = 2\n")
        for argv, t_max in (
            ([], 0.5),
            (["--config", str(path)], 0.5),
            (["--config", str(window)], 2.0),
            (["--config", str(window), "--t-max", "3"], 3.0),
        ):
            assert build_config(build_parser("curve").parse_args(argv)).t_max == t_max, argv

    def test_byte_order_mark_is_not_part_of_a_key(self, tmp_path):
        # Notepad's "UTF-8 with BOM": its first key used to read '\ufeffeta'
        text = "eta = 1e-6\ntemp_mk = 60\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        parsed = parse_config_file(str(marked), "tld")
        assert parsed == parse_config_file(str(plain), "tld") == {"eta": 1e-6, "temp_mk": 60.0}

    # the flags each subcommand takes: --config, --out, the flags of the
    # RunConfig fields it reads, and its own
    COMMAND_FLAGS = {
        "curve": "--ej --temp-mk --eta --cutoff --t-max --samples --log-y",
        "tld": "--ej --temp-mk --eta --cutoff --t-max --threshold",
        "sweep": "--ej --temp-mk --eta --cutoff --t-max --threshold "
                 "--axis --values --log-y",
        "verify": "--ej --seed --corrupt",
    }
    # the config-file keys each subcommand takes
    COMMAND_KEYS = {
        "curve": "e_j temp_mk eta omega_c s t_max n_samples",
        "tld": "e_j temp_mk eta omega_c s t_max threshold",
        "sweep": "e_j temp_mk eta omega_c s t_max threshold",
        "verify": "e_j seed",
    }

    def test_flags_store_under_config_fields(self, tmp_path, capsys):
        # a subcommand takes, as flags and as file keys, the fields it reads
        # and no others: `verify --temp-mk 300` must not run on a bath it
        # ignores and then echo that bath
        config = tmp_path / "run.cfg"
        for command, flags in self.COMMAND_FLAGS.items():
            parser = build_parser(command)
            own = {"sweep": ["--axis", "T", "--values", "1,2"]}.get(command, [])
            argv = [command, *own]
            assert main([command, "--help"]) == 0
            shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
            assert shown == {"--config", "--out", *flags.split()}, command
            # of the field table's flags, exactly those of the fields it reads
            assert {flag for _, flag, _ in _FIELDS.values() if flag in shown} == {
                _FIELDS[field][1] for field in _COMMAND_FIELDS[command]} - {None}, command
            for field, (_, flag, _) in _FIELDS.items():
                if flag in shown:
                    assert getattr(parser.parse_args(own + [flag, "3"]), field) == 3
                elif flag:
                    assert main(argv + [flag, "3"]) == 1, (command, flag)
                    last = capsys.readouterr().err.splitlines()[-1]
                    assert last.startswith("error: ") and flag in last

            keys = self.COMMAND_KEYS[command].split()
            for field in RunConfig._fields:
                config.write_text(f"{field} = 3\n")
                if field in keys:
                    assert field in parse_config_file(str(config), command)
                else:
                    assert main(argv + ["--config", str(config)]) == 1, (command, field)
                    last = capsys.readouterr().err.splitlines()[-1]
                    assert last == f"error: {config}:1: unknown key {field!r} for {command}"
            assert RunConfig().echo(command).keys() == set(keys)

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

    def test_list_value_rejected(self, tmp_path):
        # every key is a scalar: a comma list is a bad value, not a tuple
        path = tmp_path / "list.cfg"
        path.write_text("eta = 1e-6, 2e-6\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: bad value for eta: "):
            parse_config_file(str(path), "curve")

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
            "t", "b_squared", "D", "norm_line1", "norm_line2",
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
        assert float(rows[7][2]) == pytest.approx(0.5 * (1 - math.exp(-b2)), rel=1e-8, abs=0.0)
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
            report["tau_ld_units"] * TIME_UNIT_S * 1e12, rel=1e-12, abs=0.0
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
        config = write_config(tmp_path, "s80")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        tau = report["tau_ld_units"]
        spec = RunConfig(**BATHS["s80"]).bath_spec()
        d = lambda t: float(max_decoherence(dephasing_exponent(t, spec)))  # noqa: E731
        assert d(tau) >= 1e-4 > d(math.nextafter(tau, 0.0))
        assert tau == 2.404047425476015e-152

    def test_crossing_before_the_first_peak(self, tmp_path):
        # at s = 3 D peaks near omega_c t = tan(pi/3) and then falls to
        # 8.0e-5 by t_max, below the threshold it crossed on the way up
        config = write_config(tmp_path, "s3")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        cfg = RunConfig(**BATHS["s3"])
        d = lambda t: float(max_decoherence(dephasing_exponent(t, cfg.bath_spec())))  # noqa: E731
        assert d(cfg.t_max) < cfg.threshold
        tau = report["tau_ld_units"]
        assert d(tau) >= cfg.threshold > d(math.nextafter(tau, 0.0))
        assert tau == 0.005796217996904163
        assert report["verdict"] == "low-decoherence window is shorter than the idle gate"

    def test_first_crossing_past_a_hump(self, tmp_path, capsys):
        # past t_rise = 0.0576 D reaches the threshold at 0.063, dips to
        # 9.759e-7 near t = 0.11 and rises again before t_max; the bound on
        # D past t_rise is above the threshold, so no first crossing is
        # proved: one error: line, exit 1 and no report
        config = write_config(tmp_path, "hump")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: first crossing past t_rise=5.756980e-02 is not proved at "
            "s=2.627190751706458: D(t_rise)=9.782797e-07 < threshold 9.794163e-07 "
            "<= D(bound)=1.114913e-06"
        ]
        assert not out.exists()

    def test_no_crossing_past_the_rise_is_proved_by_the_bound(self, tmp_path):
        # the s = 3 bath of test_crossing_before_the_first_peak peaks at
        # D = 8.9992e-5 near t_rise = 8.66e-3, and its bound D = 9.0040e-5
        # is below 9.1e-5, so no crossing is proved at any t
        config = write_config(tmp_path, "s3-bound")
        out = tmp_path / "tld.json"
        assert main(["tld", "--config", str(config), "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["no_crossing"] and report["tau_ld_units"] is None
        cfg = RunConfig(**BATHS["s3-bound"])
        d = lambda t: float(max_decoherence(dephasing_exponent(t, cfg.bath_spec())))  # noqa: E731
        assert report["d_at_t_max"] == d(cfg.t_max) < cfg.threshold
        assert max(d(t) for t in linspace(0.5e-3, 20e-3, 2000)) < cfg.threshold

    def test_uncoupled_bath_exits_two(self, tmp_path):
        out = tmp_path / "tld.json"
        code = main(["tld", "--eta", "0", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["no_crossing"] is True
        assert report["tau_ld_units"] is None
        assert report["d_at_t_max"] == 0.0
        # B2 is 0 at the configured eta = 0, but the budget is read off the
        # eta-free B2(tau_g): the default run's, where it used to be null
        assert report["budget"] == {"eta_max": 3.604201689225632e-05}

    def test_eta_budget(self, tmp_path):
        # a no crossing report carries the same budget, which does not need tau_ld
        for extra, code in (([], 0), (["--t-max", "1"], 2)):
            out = tmp_path / "tld.json"
            assert main(["tld", *extra, "--out", str(out)]) == code
            assert json.loads(out.read_text())["budget"] == {"eta_max": 3.604201689225632e-05}

    def test_eta_budget_where_b2_at_the_gate_is_subnormal(self, tmp_path):
        # B2(tau_g) = 2.5e-317: a budget guess rescaled by a power of two
        # overflowed B2 here, and tld exited 1 with "B2 is not finite"
        out = tmp_path / "tld.json"
        argv = ["tld", "--temp-mk", "1e-300", "--cutoff", "2.9309717529636806e-156",
                "--eta", "2.214698305767123e-09", "--threshold", "2.065074878384282e-05",
                "--ej", "0.03913465999019861", "--out", str(out)]
        assert main(argv) == 2
        eta_max = json.loads(out.read_text())["budget"]["eta_max"]
        assert eta_max == 3.681668113133158e+303
        spec = RunConfig(temp_mk=1e-300, omega_c=2.9309717529636806e-156).bath_spec()
        tau_g = 1.0 / 0.03913465999019861
        d = lambda e: max_decoherence(dephasing_exponent(tau_g, spec._replace(eta=e)))  # noqa: E731
        assert d(eta_max) >= 2.065074878384282e-05 > d(math.nextafter(eta_max, 0.0))

    # each field of idle_window's record, and the key of tld's report that writes it
    RECORD_KEYS = {
        "tau_g": ("tau_gate_units",), "d_at_gate": ("d_at_gate",),
        "eta_max": ("budget", "eta_max"), "tau_ld": ("tau_ld_units",),
        "d_at_t_max": ("d_at_t_max",), "relaxation_rate": ("relaxation_rate",),
        "tau_relax": ("tau_ld_relax_units",), "window_set_by": ("window_set_by",),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(1.0, 6.0),
        # below 6.5e-308 mK beta is inf: the bath at T = 0
        temp_mk=st.one_of(st.just(1e-320), st.floats(1.0, 300.0)),
        log_omega_c=st.floats(math.log10(50.0), 4.0),
        log_eta=st.floats(-9.0, -5.0),
        e_j=st.floats(5.0, 500.0),
        log_threshold=st.floats(-6.0, -2.0),
        log_t_max=st.floats(-3.0, 1.0),
    )
    # a no crossing, and an s > 2 window whose first crossing is not proved
    @example(s=1.29, temp_mk=1e-320, log_omega_c=3.88, log_eta=-7.57, e_j=205.1,
             log_threshold=-3.8, log_t_max=-1.32)
    @example(s=2.06, temp_mk=75.8, log_omega_c=2.37, log_eta=-6.55, e_j=366.9,
             log_threshold=-3.7, log_t_max=-0.63)
    def test_report_writes_the_idle_window(self, s, temp_mk, log_omega_c, log_eta, e_j,
                                           log_threshold, log_t_max):
        # every number of the record, bit for bit, or the same ValueError,
        # which tld exits 1 on and sweep writes as an error: row
        cfg = RunConfig(e_j=e_j, temp_mk=temp_mk, eta=10.0**log_eta, omega_c=10.0**log_omega_c,
                        s=s, t_max=10.0**log_t_max, threshold=10.0**log_threshold)
        try:
            window = idle_window(cfg.threshold, cfg.bath_spec(), cfg.e_j, cfg.t_max)
        except ValueError as exc:
            with pytest.raises(ValueError) as written:
                commands._tld_report(cfg)
            assert str(written.value) == str(exc)
            return
        report = commands._tld_report(cfg)
        for field, path in self.RECORD_KEYS.items():
            value = report
            for key in path:
                value = value.get(key)
            assert repr(value) == repr(getattr(window, field)), field
        assert report["no_crossing"] is (window.tau_ld is None)
        # and the relaxation keys it derives, as test_relaxation checks them
        relax = window.tau_relax
        derived = (None, None) if relax is None else (_to_ps(relax), relax / window.tau_g)
        assert (report["tau_ld_relax_ps"], report["ratio_relax_over_gate"]) == derived


class TestSweepCommand:
    def test_temperature_whose_kb_t_underflows_runs_at_zero_temperature(self, tmp_path):
        # kB T of 5e-324 mK rounds to 0; the row used to end the sweep in a
        # ZeroDivisionError, and now matches T = 1e-320 mK, whose beta is inf
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "T", "--values", "5e-324,1e-320", "--out", str(out)]) == 0
        _, _, (tiny, cold) = read_csv(out)
        assert tiny[1:] == cold[1:]
        assert tiny[-1].startswith("no-crossing")

    def test_e_j_whose_gate_time_overflows_is_an_error_row(self, tmp_path):
        # 1/E_J overflows at 5e-324; the row used to blame a time of inf
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "E_J", "--values", "5e-324,51.8", "--out", str(out)]) == 3
        _, _, (tiny, ordinary) = read_csv(out)
        assert tiny[-1] == "error: gate time 1/e_j is not finite in double precision at e_j=5e-324"
        assert ordinary[-1] == "ok"

    def test_e_j_whose_gate_time_in_ps_overflows_is_an_error_row(self, tmp_path):
        # 1/E_J = 1e306 units is a double, but not its 6.6e308 ps
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "E_J", "--values", "1e-306,51.8", "--out", str(out)]) == 3
        _, _, (tiny, ordinary) = read_csv(out)
        assert tiny[-1] == "error: gate time 1/e_j is not finite in double precision at e_j=1e-306"
        assert ordinary[-1] == "ok"

    @pytest.mark.parametrize(
        "axis,value,status",
        [("T", "1e308", "error: temperature must be at most 2.0861363195112867e+306 mK for "
                        "kB*T to be a double; got 1e+308"),
         ("E_J", "inf", "error: e_j must be finite; got inf")],
        ids=["temperature", "e_j"],
    )
    def test_setting_out_of_range_is_a_named_error_row(self, tmp_path, axis, value, status):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", axis, "--values", f"{value},51.8", "--out", str(out)]) == 3
        _, _, (bad, _) = read_csv(out)
        assert bad[-1] == status

    def test_temperature_sweep_with_failures_recorded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--axis", "T", "--values", "0,10,30,100", "--out", str(out),
            ]
        )
        # the rows are written whole; the T = 0 error row then fails the check
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
        argv = ["sweep", "--axis", "T", "--out", out, "--values"]
        assert main(argv + ["0,10,30,-5,100"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "check failed: T = 0.0 gives error: temperature must be positive and finite; got 0.0",
            "check failed: T = -5.0 gives error: temperature must be positive and finite; "
            "got -5.0",
        ]
        assert main(argv + ["10,30,100"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "monotonicity check passed along T"

    @pytest.mark.parametrize("axis,values", [("E_J", "40,60"), ("omega_c", "100,200,400")],
                             ids=["E_J", "omega_c"])
    def test_check_runs_on_every_axis(self, tmp_path, capsys, axis, values):
        # B2 does not fall as omega_c rises and does not depend on E_J, so
        # tau_ld may not rise along these axes either
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--axis", axis, "--values", values, "--out", out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"monotonicity check passed along {axis}"
        )

    def test_flat_log_plot_spans_one_decade(self, tmp_path):
        # tau_ld does not depend on E_J, so both rows plot one value: on a
        # log axis that is the decade centred on it, labelled at 10
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "E_J", "--values", "40,60", "--log-y", "--out", str(out)]
        assert main(argv) == 0
        svg = (tmp_path / "sweep.svg").read_text()
        assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ["10"]

    def test_error_rows_do_not_set_the_plot_range(self, tmp_path):
        # eta = -1 is an error row: its value is not a point of the axis
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "eta", "--values", "1e-6,-1", "--out", str(out)]) == 3
        svg = (tmp_path / "sweep.svg").read_text()
        ticks = re.findall(r'<text x="[^"]+" y="446.0" text-anchor="middle">([^<]+)</text>', svg)
        assert ticks and all(float(tick) > 0.0 for tick in ticks), ticks

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
                "sweep", "--axis", "eta", "--values", "1e-5,1e-4,1e-3", "--out", str(out),
            ]
        )
        assert code == 0

    def test_every_row_past_t_rise_is_refused(self, tmp_path, capsys):
        # E_J does not move B2, so both rows meet the same unproved first
        # crossing past t_rise; each row is an error, which fails the check,
        # and with nothing finite to plot the skipped plot is noted
        config = write_config(tmp_path, "hump")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(config), "--axis", "E_J", "--values", "20,51.8"]
        assert main(argv + ["--out", str(out)]) == 3
        _, _, rows = read_csv(out)
        statuses = [row[-1] for row in rows]
        assert [status.startswith("error: first crossing past t_rise=5.756980e-02 is not "
                                  "proved") for status in statuses] == [True, True]
        assert capsys.readouterr().err.splitlines() == [
            f"note: skipped {tmp_path / 'sweep.svg'}: no finite data to plot",
            f"check failed: E_J = 20.0 gives {statuses[0]}",
            f"check failed: E_J = 51.8 gives {statuses[1]}",
        ]

    def test_check_fails_when_tau_ld_rises(self, monkeypatch, tmp_path, capsys):
        # a tau_ld that grows with eta breaks the monotonicity the check asserts
        monkeypatch.setattr(evolution, "_crossing", lambda threshold, spec, t_max:
                            evolution.Crossing(spec.eta, "monotone", 0, None))
        argv = ["sweep", "--axis", "eta", "--values", "1e-6,2e-6,3e-6",
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "check failed: tau_ld rises from 1e-06 to 2e-06 along increasing eta"]

    def test_other_warnings_keep_the_suites_filter(self, monkeypatch, tmp_path):
        # filterwarnings = error is in force here, and main sets no filter
        # of its own, so a warning still fails the run
        real = evolution._crossing

        def noisy(*args, **kwargs):
            warnings.warn("not expected", UserWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution, "_crossing", noisy)
        argv = ["sweep", "--axis", "T", "--values", "10,30", "--out", str(tmp_path / "s.csv")]
        with pytest.raises(UserWarning, match="not expected"):
            main(argv)

    def test_other_warnings_keep_pythons_defaults(self, tmp_path):
        # main leaves warnings to Python: under its own filters a UserWarning
        # shows once per place, in Python's own format, and a
        # DeprecationWarning raised in decoq (stacklevel 2: the caller in
        # decoq.evolution) stays hidden
        script = (
            "import io, sys, warnings\n"
            "import decoq.cli as cli\n"
            "import decoq.evolution as evolution\n"
            "real = evolution._crossing\n"
            "def noisy(*args, **kwargs):\n"
            "    warnings.warn('old', DeprecationWarning, stacklevel=2)\n"
            "    warnings.warn('odd', UserWarning, stacklevel=2)\n"
            "    return real(*args, **kwargs)\n"
            "evolution._crossing = noisy\n"
            "sys.stderr = io.StringIO()\n"
            f"code = cli.main(['sweep', '--axis', 'T', '--values', '10,30,100', "
            f"'--out', {str(tmp_path / 's.csv')!r}])\n"
            "print(code, sys.stderr.getvalue().splitlines())\n"
        )
        code, _, err = run_python(script).splitlines()[-1].partition(" ")
        assert code == "0"
        shown = ast.literal_eval(err)  # the stderr lines, as printed
        # the warning line, then the source line it points at
        assert len(shown) == 2
        assert re.fullmatch(r".*evolution\.py:\d+: UserWarning: odd", shown[0])


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        # the benchmark scores each check it names, by that name
        assert [c["name"] for c in report["checks"]] == list(benchmark_verify_checks())

    def test_a_check_that_raises_fails(self, monkeypatch, tmp_path, capsys):
        # a crash is a failed check, and the other checks still run
        from decoq.cli import checks

        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "_check_split_order", crash)
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 3
        assert "check split-order: FAIL (raised RuntimeError: boom)" in (
            capsys.readouterr().out.splitlines())
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        assert [(c["name"], c["passed"]) for c in report["checks"] if not c["passed"]] == [
            ("split-order", False)]
        assert report["checks"][-1]["detail"] == "raised RuntimeError: boom"

    def test_corrupted_exponent_is_caught(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--corrupt", "b2", "--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["pure-dephasing-oracle"]


ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def benchmark_tracing():
    """perfbench/tracing.py as it stands; it imports the standard library alone."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_verify_checks():
    """VERIFY_CHECKS, read from perfbench/checks.py's source: that module imports numpy."""
    tree = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["VERIFY_CHECKS"])


def readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table under header."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rule = "|---" * (header.count("|") - 1) + "|"
    body = readme.split(f"{header}\n{rule}\n")[1].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")] for line in body.splitlines()]
    assert all(len(row) == header.count("|") - 1 for row in rows), header
    return rows


def golden_keys() -> set[str]:
    """Each key of the golden files: a JSON path in dots, a check by its name, a CSV column."""
    keys = set()

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}{key}.")
        elif isinstance(value, list):
            for check in value:
                keys.add(f"{path}{check['name']}")
        else:
            keys.add(path[:-1])

    for path in GOLDEN.glob("*/*.json"):
        walk(json.loads(path.read_text()), "")
    for path in GOLDEN.glob("*/*.csv"):
        keys.update(next(line for line in path.read_text().splitlines()
                         if not line.startswith("#")).split(","))
    return keys


class TestReadme:
    CLAIMS = "| key | written by | tolerance | reference | region | tests |"

    def test_flag_table_matches_the_parsers(self):
        # each row of README's subcommand table: the flags in the parser's
        # order (besides --config and --out) and the keys of _COMMAND_FIELDS
        rows = [[cell.strip("`") for cell in row]
                for row in readme_table("| subcommand | flags | config keys |")]
        assert [command for command, _, _ in rows] == list(_COMMAND_FIELDS)
        for command, flags, keys in rows:
            parser = build_parser(command)
            taken = [flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help", "--config", "--out")]
            assert flags.split() == taken, command
            assert tuple(keys.split()) == _COMMAND_FIELDS[command], command

    def key_rows(self) -> dict:
        """The Claims rows of output keys, by key pattern; library rows name no key."""
        return {row[0].strip("`"): row for row in readme_table(self.CLAIMS)
                if re.fullmatch(r"`[\w.*-]+`", row[0])}

    def test_claims_cover_every_golden_key(self):
        patterns = self.key_rows()
        keys = golden_keys()
        assert [key for key in sorted(keys)
                if not any(fnmatch.fnmatchcase(key, p) for p in patterns)] == []
        assert [p for p in patterns if not fnmatch.filter(keys, p)] == []

    def test_claims_name_collected_tests(self):
        rows = readme_table(self.CLAIMS)
        assert all("`tests/" in row[-1] for row in rows)
        nodes = sorted({node for row in rows for node in re.findall(r"`(tests/[^`]+)`", row[-1])})
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             *nodes], capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        collected = set(proc.stdout.splitlines())
        assert [node for node in nodes
                if not any(line == node or line.startswith(node + "[") for line in collected)
                ] == []

    def test_verify_rows_state_the_printed_tolerance(self):
        rows = self.key_rows()
        report = json.loads((GOLDEN / "verify" / "verify.json").read_text())
        for check in report["checks"]:
            printed = re.fullmatch(r".* \((?:tol|expected within) (.+)\)", check["detail"])[1]
            assert rows[f"checks.{check['name']}"][2] == printed, check["name"]

    def test_workflow_runs_the_cross_version_script(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        script = re.search(r"```sh\n(tests/\S+\.sh)\n```", readme)[1]
        assert os.access(ROOT / script, os.X_OK)
        workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        assert f"        run: {script}\n" in workflow
        # the script, not the console-script step, runs the cases with
        # warnings as errors, on every interpreter
        launches = [line for line in (ROOT / script).read_text(encoding="utf-8").splitlines()
                    if "cases.py" in line and not line.startswith("#")]
        assert launches and all("$py -W error tests/golden/cases.py " in line
                                for line in launches)


class TestSuiteLayout:
    def test_no_test_module_imports_another(self):
        # what two test modules share belongs in tests/references.py
        imports = []
        for path in sorted((ROOT / "tests").glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imports += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imports.append((path.name, node.module or ""))
        assert [(name, module) for name, module in imports
                if module.split(".")[0].startswith("test_")] == []

    def test_every_approx_states_its_absolute_tolerance(self):
        # without abs=, pytest.approx also accepts anything within 1e-12,
        # whatever rel says: a B2 of 2.6e-306 would match 0.0
        loose = []
        for path in sorted((ROOT / "tests").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "approx"
                        and "abs" not in {keyword.arg for keyword in node.keywords}):
                    loose.append(f"{path.name}:{node.lineno}")
        assert loose == []


# flag values at the edges of a double, drawn beside each flag's ordinary value
EDGE_VALUES = ["0", "-1", "5e-324", "1e300", "inf", "nan"]
ORDINARY = {"--ej": "51.8", "--temp-mk": "30", "--eta": "1e-6", "--cutoff": "200",
            "--t-max": "10", "--samples": "20", "--threshold": "1e-4"}
AXIS_ORDINARY = {"T": "30", "eta": "1e-6", "E_J": "51.8", "omega_c": "200"}


@st.composite
def fuzzed_argv(draw):
    """curve, tld or sweep with up to three of its flags set to edge or ordinary values."""
    command = draw(st.sampled_from(["curve", "tld", "sweep"]))
    flags = [flag for _, flag, _ in (_FIELDS[f] for f in _COMMAND_FIELDS[command]) if flag]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(EDGE_VALUES) | st.just(ORDINARY[flag]))]
    if command == "sweep":
        axis = draw(st.sampled_from(sorted(AXIS_ORDINARY)))
        pool = st.sampled_from(EDGE_VALUES) | st.just(AXIS_ORDINARY[axis])
        # one word, so a list that starts with -1 is not read as a flag
        values = draw(st.lists(pool, min_size=2, max_size=3))
        argv += ["--axis", axis, "--values=" + ",".join(values)]
    return argv


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

    def test_e_j_whose_gate_time_overflows_is_named(self, tmp_path, capsys):
        # the gate time 1/E_J overflows at 5e-324, where the error used to name
        # a time of inf; at 1e-306 only its 2.7e308 ps does, where tld used to
        # write "Infinity" into its JSON
        out = tmp_path / "t.json"
        for e_j in ("5e-324", "1e-306"):
            argv = ["tld", "--ej", e_j, "--temp-mk", "1e-320", "--cutoff", "1e-10"]
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: gate time 1/e_j is not finite in double precision at e_j={e_j}"]
            assert not out.exists()

    def test_non_finite_json_value_is_refused_before_the_file_opens(self, tmp_path, capsys):
        # tau_ld / tau_g overflows: RFC 8259 has no Infinity, which tld used to write
        out = tmp_path / "t.json"
        argv = ["tld", "--ej", "1e15", "--eta", "1e-303", "--t-max", "1e305", "--temp-mk", "300"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {out} not written: Out of range float values are not "
                                 "JSON compliant")
        assert not out.exists()

    def test_uncoupled_bath_whose_b2_is_not_a_double_exits_one(self, tmp_path, capsys):
        # the eta-free B2(tau_g) overflows at 1e305 mK; at eta = 0, which skipped
        # it, tld used to exit 2, where every eta > 0 exits 1
        out = tmp_path / "t.json"
        for eta in ("0", "1e-6"):
            argv = ["tld", "--eta", eta, "--temp-mk", "1e305", "--ej", "1e-4", "--out", str(out)]
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: B2 is not finite in double precision at s=1.0, "
                           "omega_c=200.0, t=10000.0"]
            assert not out.exists()

    def test_unrepresentable_bath_exits_one(self, tmp_path, capsys):
        # omega_c^(s-1) = 1e316 overflows a double; the run ends with one
        # error line, not a traceback
        config = write_config(tmp_path, "overflow")
        assert main(["tld", "--config", str(config), "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: B2 is not finite in double precision at s=80.0, "
                                 "omega_c=10000.0, t=")

    @pytest.mark.parametrize("command", [["curve", "--samples", "3"], ["tld"]])
    def test_underflowed_thermal_sum_exits_one(self, tmp_path, capsys, command):
        # s = 26 at a = 1/(beta omega_c) = 1e15: curve wrote B2's vacuum term alone
        config = tmp_path / "s26.cfg"
        config.write_text("s = 26\n")
        out = tmp_path / "out.dat"
        assert main(command + ["--config", str(config), "--cutoff", "1e-5", "--temp-mk",
                               "1.1604518e11", "--t-max", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: B2's thermal sum underflows")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,flag,key",
        [(["tld", "--quad-tol", "1e-8"], "--quad-tol", "quad_tol"),
         (["curve", "--state", "line1"], "--state", "initial_states"),
         (["sweep", "--axis", "T", "--values", "10,30", "--check"], "--check", None)],
        ids=["quad-tol", "state", "check"],
    )
    def test_removed_setting_is_rejected(self, tmp_path, capsys, argv, flag, key):
        # a removed flag, and its config key, is a usage error that names it
        out = str(tmp_path / "out.dat")
        assert main(argv + ["--out", out]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
        assert len(err) == 1 and flag in err[0]
        if key is not None:
            config = tmp_path / "old.cfg"
            config.write_text(f"{key} = {argv[2]}\n")
            assert main([argv[0], "--config", str(config), "--out", out]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {config}:1: unknown key {key!r} for {argv[0]}"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command,line,message",
        [("verify", "seed = -1", "seed must be >= 0, got -1"),
         ("curve", "n_samples = 1", "n_samples must be >= 2, got 1"),
         ("tld", "temp_mk = nan", "temperature must be positive and finite, got nan"),
         # these used to run out of memory, blame beta = 0.0 and call inf not positive
         ("curve", "n_samples = 1000000000000000000000",
          "n_samples must be <= 1000000, got 1000000000000000000000"),
         ("tld", "temp_mk = 1e308",
          "temperature must be at most 2.0861363195112867e+306 mK for kB*T to be a double, "
          "got 1e+308"),
         ("tld", "e_j = inf", "e_j must be finite, got inf")],
        ids=["seed", "n-samples", "temperature", "n-samples-cap", "hot-temperature", "e-j-inf"],
    )
    def test_bad_config_setting_exits_one(self, tmp_path, capsys, command, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "out.dat"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,threshold,t_max",
        [("--t-max", "-1", 1e-4, -1.0), ("--t-max", "inf", 1e-4, math.inf),
         ("--threshold", "0.5", 0.5, 10.0), ("--threshold", "nan", math.nan, 10.0)],
    )
    def test_window_has_the_message_of_low_decoherence_time(
        self, tmp_path, capsys, flag, value, threshold, t_max
    ):
        # one rule for the threshold and t_max, in evolution
        with pytest.raises(ValueError) as direct:
            low_decoherence_time(threshold, RunConfig().bath_spec(), t_max)
        assert main(["tld", flag, value, "--out", str(tmp_path / "t.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {direct.value}"]

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

    @pytest.mark.parametrize(
        "argv",
        [["curve", "--samples", "4"], ["sweep", "--axis", "T", "--values", "30,100"]],
        ids=["curve", "sweep"],
    )
    def test_output_that_is_the_plot_path_exits_one(self, tmp_path, capsys, argv):
        # the plot goes next to the CSV as <stem>.svg, so a CSV named
        # plot.svg would be written and then overwritten by the plot
        out = tmp_path / "plot.svg"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out {out} is the plot's path; give the CSV another extension\n")
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(argv=fuzzed_argv(), s=st.sampled_from([None, "2", "3"]) | st.sampled_from(EDGE_VALUES))
    @example(argv=["tld", "--temp-mk", "5e-324"], s=None)
    @example(argv=["curve", "--cutoff", "5e-324"], s=None)
    @example(argv=["sweep", "--axis", "T", "--values=0,5e-324"], s="2")
    def test_fuzzed_argv_exits_with_a_documented_code(self, tmp_path_factory, argv, s):
        # kB T of 5e-324 mK used to underflow to 0 and end in a
        # ZeroDivisionError traceback; every run ends in a documented exit
        # code, and a failed one in exactly one error line
        tmp = tmp_path_factory.mktemp("argv")
        argv = [*argv, "--out", str(tmp / "out.dat")]
        if s is not None:
            (tmp / "run.cfg").write_text(f"s = {s}\n")
            argv += ["--config", str(tmp / "run.cfg")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3)
        assert not any("Traceback" in line for line in lines)
        if code == 1:
            assert sum(line.startswith("error:") for line in lines) == 1
        if argv[0] == "sweep" and (tmp / "out.dat").exists():
            # every sweep checks: an error row, or a tau_ld that rises along
            # the axis, exits 3, and any other sweep exits 0
            _, header, rows = read_csv(tmp / "out.dat")
            taus = sorted((float(row[0]), float(row[header.index("tau_ld_units")]))
                          for row in rows if not row[-1].startswith("error"))
            finite = [tau for _, tau in taus if math.isfinite(tau)]
            rises = any(b > a * (1.0 + 1e-9) for a, b in zip(finite, finite[1:]))
            failed = rises or any(row[-1].startswith("error") for row in rows)
            assert code == (3 if failed else 0)

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

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--out", "x", "tld"], "--out"), (["--config", "run.cfg", "tld"], "--config"),
         (["--eta", "1e-6", "tld"], "--eta")],
        ids=["out", "config", "eta"],
    )
    def test_subcommand_flag_before_the_command_is_named(self, capsys, argv, flag):
        # the root parser takes no subcommand flag, so it must not read the
        # flag's value as the command word
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: decoq [-h] [--version] {curve,tld,sweep,verify} ...")
        assert err.splitlines()[-1] == f"error: {flag} goes after the command"

    def test_help_names_every_subcommand(self):
        # what `python -m decoq.cli --help` runs, in a fresh interpreter
        out = run_python("import runpy, sys\nsys.argv[1:] = ['--help']\n"
                         "runpy.run_module('decoq.cli', run_name='__main__')\n")
        assert out.startswith("usage: decoq [-h] [--version] {curve,tld,sweep,verify} ...")
        for command in ("curve", "tld", "sweep", "verify"):
            assert re.search(rf"(?m)^    {command} ", out), command

    def test_a_launch_builds_one_parser(self, tmp_path, monkeypatch):
        built = []

        def counting(command):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["tld", "--out", str(tmp_path / "tld.json")]) == 0
        assert built == ["tld"]

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_presets_cover_pole_and_equator(self):
        # the pole's norm is D, which curve writes as its own column
        assert list(PRESETS) == ["line1", "line2"]
        assert PRESETS["line1"] == (math.pi / 3.0, 0.0)
        assert PRESETS["line2"] == (math.pi / 2.0, 0.0)


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
            "import sys\n"
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
            "    ('sweep', ['sweep', '--axis', 'T', '--values', '10,30,100'], 0),\n"
            "):\n"
            "    assert main(argv + ['--out', out + name.replace(' ', '_')]) == code, name\n"
            "    loaded.append(scipy_loaded())\n"
            "    ran[name] = numpy_run()\n"
            f"hump = RunConfig(**{BATHS['hump']!r})\n"
            "try:\n"
            "    low_decoherence_time(hump.threshold, hump.bath_spec(), hump.t_max)\n"
            "except ValueError:\n"
            "    pass\n"
            "ran['bound past t_rise'] = numpy_run()\n"
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

    # which of these modules a launch loads; decoq evaluates its annotations
    # as written, so no launch needs __future__
    WATCHED = (
        "__future__", "decoq.bath", "decoq.cli.checks", "decoq.cli.commands", "decoq.discrete",
        "decoq.evolution", "decoq.oracle", "decoq.states", "decoq.svgplot", "decoq.units", "json",
        "numpy", "numpy.linalg",
    )
    # what curve, tld and sweep run on
    KERNEL = ["decoq.bath", "decoq.cli.commands", "decoq.evolution", "decoq.units"]

    @pytest.mark.parametrize(
        "argv,code,loaded",
        [
            (["--version"], 0, []),
            (["-h"], 0, []),
            (["--eta", "1", "tld"], 1, []),
            (["tld"], 0, [*KERNEL, "json"]),
            (["tld", "--config", "s3.cfg"], 0, [*KERNEL, "json"]),
            (["tld", "--config", "hump.cfg"], 1, KERNEL),
            (["curve"], 0, [*KERNEL, "decoq.svgplot"]),
            (["sweep", "--axis", "T", "--values", "10,30"], 0, [*KERNEL, "decoq.svgplot"]),
            (["verify"], 0, [
                "decoq.bath", "decoq.cli.checks", "decoq.cli.commands", "decoq.discrete",
                "decoq.evolution", "decoq.oracle", "decoq.states", "decoq.units", "json", "numpy",
                "numpy.linalg",
            ]),
        ],
        ids=["version", "help", "usage-error", "tld", "tld-s3", "tld-hump", "curve", "sweep",
             "verify"],
    )
    def test_launch_loads_only_what_it_runs(self, tmp_path, argv, code, loaded):
        for name in ("s3", "hump"):
            write_config(tmp_path, name)
        script = (
            "import contextlib, io, os, sys\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "from decoq.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == {code}\n"
            f"print(sorted(set(sys.modules) & set({self.WATCHED!r})))\n"
        )
        assert run_python(script).splitlines()[-1] == repr(sorted(loaded))

    def test_version_launch_imports_only_the_dispatcher(self):
        # python -m runs decoq/cli/__main__.py as __main__, so the launch
        # imports the package and its dispatcher and nothing else of decoq
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "decoq.cli", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, f"decoq {__version__}\n")
        imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert [name for name in imported if name.split(".")[0] == "decoq"] == [
            "decoq", "decoq.cli"]

    @pytest.mark.parametrize("argv,code", [(["--version"], 0), (["--eta", "1", "tld"], 1),
                                           (["tld", "--t-max", "1"], 2)])
    def test_module_launch_exits_with_the_code_of_main(self, tmp_path, argv, code):
        # decoq/cli/__main__.py exits with what main returns, as the console script does
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "decoq.cli", *argv], capture_output=True,
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.returncode == code, proc.stderr

    @pytest.mark.parametrize("module", ["decoq.cli", "decoq.oracle"])
    def test_import_loads_no_dataclasses(self, module):
        # records are validated named tuples and svgplot escapes SVG text
        # itself: dataclasses drags inspect, ast, dis and tokenize into
        # every launch, and html its entity table.  numpy's own import loads
        # inspect, so the oracle, which imports numpy, is measured after it.
        # random_density_matrix's annotation names np.random as a string:
        # evaluated, it would load numpy.random's 18 modules on every import
        heavy = ("dataclasses", "inspect", "html", "numpy.random")
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


# decoq.__all__ when the package imported every submodule eagerly, less
# thermal_bath_state, which moved into the oracle tests as a dense reference,
# and the oracle's truncation warning, which went when it began to hold the
# bath, plus idle_window and its record, the answer tld writes, less coth,
# spectral_density and influence_exponent, each folded into its one caller,
# less DeviationOperator, which went, and REFERENCE_NAMES
PUBLIC_NAMES = [
    "BathSpec", "COMPUTATIONAL", "CompositeSystem", "DimensionCapError", "DiscreteBath",
    "EIGENBASIS", "ErrorScalingResult", "HBAR_UEV_S", "IdleWindow", "KB_UEV_PER_K",
    "NoCrossingError", "QubitState", "SplitComparison", "TIME_UNIT_S", "TruncatedBathMode",
    "basis_change", "dephasing_exponent", "dephasing_exponent_modes", "discretize_bath",
    "error_scaling", "evolve_exact", "evolve_real", "evolve_split", "gate_unitary",
    "idle_window", "low_decoherence_time", "max_decoherence", "pure_state",
    "pure_state_norm", "split_vs_closed_form", "temperature_to_beta",
]

# verify's references and C(t): importable from their modules, not from decoq
REFERENCE_NAMES = {
    "decoq.bath": ["phase_shift"],
    "decoq.discrete": ["phase_shift_modes"],
    "decoq.states": [
        "bloch_supremum_scan", "deviation", "deviation_norm", "deviation_norm_closed_form",
        "evolve_ideal", "evolve_real_influence_sum", "random_density_matrix",
    ],
}

# the names decoq.evolution defines, and the one record it takes from
# decoq.states, which the benchmark's oracle job reads there
EVOLUTION_NAMES = [
    "COMPUTATIONAL", "EIGENBASIS", "IdleWindow", "NoCrossingError", "QubitState", "_bisect",
    "idle_window", "low_decoherence_time", "max_decoherence", "pure_state_norm",
]

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

    def test_references_live_in_their_modules_alone(self):
        import decoq

        namespace = {}
        exec("from decoq import *", namespace)
        for module, names in REFERENCE_NAMES.items():
            home = importlib.import_module(module)
            for name in names:
                assert getattr(home, name).__module__ == module, name
                assert name not in namespace and name not in decoq.__all__, name
                with pytest.raises(AttributeError, match=name):
                    getattr(decoq, name)
        assert not hasattr(importlib.import_module("decoq.states"), "DeviationOperator")

    def test_names_resolve_in_a_fresh_interpreter(self):
        # each lookup is the first one, so it goes through a module __getattr__;
        # the benchmark's tracer looks up and wraps its BOUNDARIES names
        traced = {module: list(names) for module, names in benchmark_tracing().BOUNDARIES.items()}
        script = (
            "import sys\n"
            "import decoq\n"
            "from decoq import oracle\n"
            "print(oracle.__name__)\n"
            "import decoq.evolution as evolution\n"
            f"print([n for n in {EVOLUTION_NAMES!r} if not hasattr(evolution, n)])\n"
            "print(hasattr(evolution, 'evolve_real'))\n"
            "import decoq.states as states\n"
            "print(evolution.QubitState is states.QubitState is decoq.QubitState)\n"
            "import decoq.cli as cli\n"
            f"for module, names in {traced!r}.items():\n"
            "    print(module, [n for n in names if not hasattr(sys.modules[module], n)])\n"
            "print(cli.evolve_real is states.evolve_real, cli.write_svg.__module__)\n"
            "import decoq.discrete as discrete\n"
            "print(oracle.dephasing_exponent_modes is discrete.dephasing_exponent_modes)\n"
        )
        assert run_python(script).splitlines() == [
            "decoq.oracle", "[]", "False", "True", "decoq.cli []", "decoq.evolution []",
            "decoq.oracle []", "True decoq.svgplot", "True",
        ]

    def test_idle_window_loads_neither_numpy_nor_the_cli(self):
        script = (
            "import sys\n"
            "import decoq\n"
            "spec = decoq.BathSpec(eta=1e-6, omega_c=200.0, beta=decoq.temperature_to_beta(30.0))\n"
            "window = decoq.idle_window(1e-4, spec, 51.8, 10.0)\n"
            "print(window.tau_ld, type(window).__name__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'decoq')))\n"
        )
        assert run_python(script).splitlines() == [
            "5.8583302660491405 IdleWindow",
            "['decoq', 'decoq.bath', 'decoq.evolution', 'decoq.units']",
        ]

    @pytest.mark.parametrize("module", ["decoq", "decoq.evolution", "decoq.cli"])
    def test_unknown_name_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(importlib.import_module(module), "no_such_name")


class TestBenchmarkNames:
    """What perfbench/ reads on decoq, read from perfbench/ itself: a name
    it needs that decoq drops fails here, not in a benchmark run."""

    def test_its_decoq_imports_resolve(self):
        statements = set()
        for path in PERFBENCH.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("decoq"):
                    statements.update(f"from {node.module} import {a.name}" for a in node.names)
                elif isinstance(node, ast.Import):
                    statements.update(f"import {a.name}" for a in node.names
                                      if a.name.startswith("decoq"))
        assert "from decoq.bath import dephasing_exponent_zero_t" in statements
        failed = []
        for statement in sorted(statements):
            try:
                exec(statement, {})
            except ImportError:
                failed.append(statement)
        assert failed == []

    def test_oracle_job_reads_resolve(self):
        # each attribute chain the oracle job reads on decoq.evolution and
        # decoq.oracle, and the oracle functions the tracer's API_LAYERS wrap
        tree = ast.parse((PERFBENCH / "jobs" / "oracle_job.py").read_text(encoding="utf-8"))
        chains = {("oracle", name) for name in benchmark_tracing().API_LAYERS}
        for node in ast.walk(tree):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in ("evolution", "oracle"):
                chains.add((node.id, *attrs))
        assert ("oracle", "_eigensystem", "cache_info") in chains
        modules = {"evolution": evolution, "oracle": importlib.import_module("decoq.oracle")}

        def resolves(chain):
            obj = modules[chain[0]]
            for attr in chain[1:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True

        assert [".".join(chain) for chain in sorted(chains) if not resolves(chain)] == []


class TestTracedNames:
    def test_commands_call_the_names_the_tracer_wraps(self, tmp_path):
        # the benchmark's tracer replaces these on decoq.cli and decoq.evolution
        # before main runs; the command modules load after it and call what it
        # put on decoq.cli, and idle_window takes B2 from decoq.evolution
        script = (
            "import contextlib, io, os\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "import decoq.cli as cli\n"
            "import decoq.evolution as evolution\n"
            "calls = {}\n"
            "def counting(name, real):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls[name] = calls.get(name, 0) + 1\n"
            "        return real(*args, **kwargs)\n"
            "    return wrapper\n"
            "traced = ((cli, ('dephasing_exponent', 'error_scaling', 'phase_shift')),\n"
            "          (evolution, ('dephasing_exponent',)))\n"
            "for module, names in traced:\n"
            "    for name in names:\n"
            "        key = f\"{module.__name__.rpartition('.')[2]}.{name}\"\n"
            "        setattr(module, name, counting(key, getattr(module, name)))\n"
            "for command in ('curve', 'tld', 'verify'):\n"
            "    calls.clear()\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main([command]) == 0\n"
            "    print(command, sorted(calls.items()))\n"
        )
        # curve: B2 at each of its 400 points, and no C, which cancels from
        # every qubit quantity; tld: the eta-free total of B2 at the gate,
        # which d_at_gate and the eta budget share, and 63 probes of the root
        # find, all through decoq.evolution
        assert run_python(script).splitlines() == [
            "curve [('cli.dephasing_exponent', 400)]",
            "tld [('evolution.dephasing_exponent', 64)]",
            "verify [('cli.dephasing_exponent', 1), ('cli.error_scaling', 1)]",
        ]
