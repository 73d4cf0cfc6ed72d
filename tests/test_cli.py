import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decoq import __version__
from decoq.bath import dephasing_exponent
from decoq.cli import (
    PRESETS,
    RunConfig,
    build_config,
    build_parser,
    main,
    parse_config_file,
)
from decoq.evolution import max_decoherence
from decoq.units import TIME_UNIT_S, temperature_to_beta


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
            ("quad_tol", 1e-2),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        import dataclasses

        cfg = dataclasses.replace(RunConfig(), **{field: value})
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
            "initial_states = point, line2\n"
            "seed = 7\n"
        )
        parser = build_parser()
        args = parser.parse_args(["tld", "--config", str(path), "--temp-mk", "30"])
        cfg, explicit = build_config(args)
        assert cfg.eta == 2e-6  # file beats default
        assert cfg.temp_mk == 30.0  # flag beats file
        assert cfg.initial_states == ("point", "line2")
        assert cfg.seed == 7
        assert {"eta", "temp_mk", "initial_states", "seed"} <= explicit

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling = 1e-6\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta 1e-6\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta = fast\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config_file(str(path))

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
        assert long == pytest.approx(default, rel=1e-4)

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
                "sweep", "--axis", "T", "--values", "10,30,100",
                "--check", "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["value", "tau_ld_units", "tau_ld_ps", "d_at_gate", "status"]
        assert len(rows) == 3
        by_value = {float(r[0]): r for r in rows}
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

    def test_check_requires_supported_axis(self):
        assert main(["sweep", "--axis", "E_J", "--values", "40,60", "--check"]) == 1

    def test_bad_values_exit_one(self):
        assert main(["sweep", "--axis", "T", "--values", "10;20"]) == 1
        assert main(["sweep", "--axis", "T", "--values", "10"]) == 1

    def test_eta_monotonicity_check_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--axis", "eta", "--values", "1e-5,1e-4,1e-3",
                "--check", "--out", str(out),
            ]
        )
        assert code == 0


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
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self):
        assert main(["tld", "--ej", "minus-five"]) == 1

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

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_presets_cover_pole_and_equator(self):
        assert PRESETS["point"][0] == 0.0
        assert PRESETS["line2"][0] == pytest.approx(math.pi / 2.0)


class TestLazyImport:
    def test_runs_do_not_load_scipy(self, tmp_path):
        # decoq runs on numpy alone, the s != 1 kernel included
        src = Path(__file__).resolve().parents[1] / "src"
        config = tmp_path / "s2.cfg"
        config.write_text("s = 2\n")
        script = (
            "import sys\n"
            "def scipy_loaded():\n"
            "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "import decoq\n"
            "loaded = [scipy_loaded()]\n"
            "from decoq.cli import main\n"
            "for cmd in ('curve', 'tld'):\n"
            f"    out = {str(tmp_path)!r} + '/' + cmd + '.out'\n"
            f"    assert main([cmd, '--config', {str(config)!r}, '--out', out]) == 0\n"
            "    loaded.append(scipy_loaded())\n"
            "print('scipy loaded:', loaded)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "scipy loaded: [False, False, False]"
