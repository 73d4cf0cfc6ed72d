"""Golden outputs: the command line runs of tests/golden/ rerun and compared.

Each case is one `cli.main` run in a fresh directory.  Its golden
directory holds the exit code, stdout and stderr, with the run's
directory written as {dir}, and every file the run wrote.  A rerun must
give the same exit code, the same text and keys, and numbers within a
few ulp; `verify` is compared by its check names and pass flags, since
its details carry numpy and BLAS round-off.

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

rewrites the golden files from the decoq on sys.path.  Regenerating one
is an output change.
"""

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from decoq.cli import main

GOLDEN = Path(__file__).parent / "golden"

# config files every run finds in its directory
CONFIGS = {
    # D peaks near omega_c t = tan(pi/3) and falls to below the threshold by t_max
    "s3.cfg": "s = 3\neta = 1e-9\nthreshold = 8.5e-5\nt_max = 1000\n",
    # the same bath, with a threshold above the bound on D past t_rise
    "s3-bound.cfg": "s = 3\neta = 1e-9\nthreshold = 9.1e-5\nt_max = 1000\n",
    # D crosses past t_rise, falls back below the threshold and crosses again,
    # and the bound past t_rise is above the threshold
    "hump.cfg": (
        "s = 2.627190751706458\ntemp_mk = 69.74256994832315\nomega_c = 44.12905023409275\n"
        "eta = 1.0598897093789957e-09\nt_max = 0.27958368503951514\n"
        "threshold = 9.794163274970207e-07\n"
    ),
    # a crossing at 2.4e-152 time units
    "s80.cfg": "s = 80\nomega_c = 200\n",
    # B2 overflows a double
    "overflow.cfg": "s = 80\nomega_c = 1e4\n",
}

# case -> argv, with {dir} the run's directory
CASES = {
    "version": ["--version"],
    "help": ["-h"],
    "bad-flag": ["tld", "--thr", "1e-4"],
    "tld": ["tld", "--out", "{dir}/tld.json"],
    "tld-s3": ["tld", "--config", "{dir}/s3.cfg", "--out", "{dir}/tld.json"],
    "tld-s3-bound": ["tld", "--config", "{dir}/s3-bound.cfg", "--out", "{dir}/tld.json"],
    "tld-hump": ["tld", "--config", "{dir}/hump.cfg", "--out", "{dir}/tld.json"],
    "tld-no-crossing": ["tld", "--t-max", "1", "--out", "{dir}/tld.json"],
    "tld-s80": ["tld", "--config", "{dir}/s80.cfg", "--out", "{dir}/tld.json"],
    "tld-t-max-1e300": ["tld", "--t-max", "1e300", "--out", "{dir}/tld.json"],
    "tld-overflow": ["tld", "--config", "{dir}/overflow.cfg", "--out", "{dir}/tld.json"],
    "curve": ["curve", "--out", "{dir}/curve.csv"],
    "curve-log-y": ["curve", "--log-y", "--out", "{dir}/curve.csv"],
    "curve-eta-0": ["curve", "--eta", "0", "--out", "{dir}/curve.csv"],
    # s3.cfg sets threshold, which curve does not read
    "curve-unread-key": ["curve", "--config", "{dir}/s3.cfg", "--out", "{dir}/curve.csv"],
    "sweep-T-check": ["sweep", "--axis", "T", "--values", "10,30,100,300",
                      "--out", "{dir}/sweep.csv"],
    "sweep-eta": ["sweep", "--axis", "eta", "--values", "1e-7,1e-6,1e-5", "--log-y",
                  "--out", "{dir}/sweep.csv"],
    "sweep-E_J-hump": ["sweep", "--axis", "E_J", "--values", "20,51.8", "--config",
                       "{dir}/hump.cfg", "--out", "{dir}/sweep.csv"],
    "sweep-check-error": ["sweep", "--axis", "eta", "--values", "1e-6,-1",
                          "--out", "{dir}/sweep.csv"],
    "verify": ["verify", "--out", "{dir}/verify.json"],
    "verify-corrupt-b2": ["verify", "--corrupt", "b2", "--out", "{dir}/verify.json"],
}

# a decimal number standing alone, not the digits of a name or of a dotted version
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf(?:inity)?)(?![\w.])",
    re.IGNORECASE,
)
ULPS = 4


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in workdir; file name -> text of everything it leaves."""
    for config, text in CONFIGS.items():
        (workdir / config).write_text(text)
    argv = [arg.format(dir=workdir) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage and help at the terminal's width: pin the 80
    # columns it takes when stdout is not a terminal
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    outputs = {
        path.name: path.read_text()
        for path in sorted(workdir.iterdir()) if path.name not in CONFIGS
    }
    outputs["exit_code"] = f"{code}\n"
    outputs["stdout.txt"] = out.getvalue().replace(str(workdir), "{dir}")
    outputs["stderr.txt"] = err.getvalue().replace(str(workdir), "{dir}")
    return outputs


def _verify_view(file: str, text: str) -> str:
    """verify's outputs without the detail of each check."""
    if file.endswith(".json"):
        payload = json.loads(text)
        for check in payload["checks"]:
            del check["detail"]
        return json.dumps(payload, indent=2, sort_keys=True)
    return re.sub(r"(?m)^(check [^:]+: (?:PASS|FAIL)) \(.*\)$", r"\1", text)


def _printed_unit(token: str) -> float:
    """One unit in the last printed decimal place of a number token."""
    mantissa, _, exponent = token.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _numbers_match(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    if not re.search(r"[.eEnN]", expected):  # an integer matches exactly
        return False
    a, b = float(expected), float(actual)
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    # a few ulp of the double, or a rounding flip of the printed last digit
    tol = max(ULPS * math.ulp(max(abs(a), abs(b))), _printed_unit(expected))
    return abs(a - b) <= tol


def mismatches(file: str, expected: str, actual: str) -> list[str]:
    """Where actual differs from expected, as 'file:line: ...' messages."""
    want, got = expected.splitlines(), actual.splitlines()
    out = []
    if len(want) != len(got):
        out.append(f"{file}: {len(want)} lines expected, {len(got)} written")
    for lineno, (w, g) in enumerate(zip(want, got), 1):
        w_text, g_text = NUMBER.split(w), NUMBER.split(g)
        w_nums, g_nums = NUMBER.findall(w), NUMBER.findall(g)
        if w_text != g_text or len(w_nums) != len(g_nums):
            out.append(f"{file}:{lineno}: expected {w!r}, got {g!r}")
            continue
        for w_num, g_num in zip(w_nums, g_nums):
            if not _numbers_match(w_num, g_num):
                out.append(f"{file}:{lineno}: expected {w_num}, got {g_num}")
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_outputs(name, tmp_path):
    golden_dir = GOLDEN / name
    golden = {path.name: path.read_text() for path in sorted(golden_dir.iterdir())}
    outputs = run_case(name, tmp_path)
    assert sorted(outputs) == sorted(golden), f"{golden_dir}: files differ"
    problems = []
    for file, expected in golden.items():
        actual = outputs[file]
        if name.startswith("verify"):
            expected, actual = _verify_view(file, expected), _verify_view(file, actual)
        problems += mismatches(f"{golden_dir}/{file}", expected, actual)
    assert not problems, "\n".join(problems[:20])


def test_comparison_allows_a_few_ulp_and_names_a_change():
    golden = (GOLDEN / "tld" / "tld.json").read_text()
    tau = "5.8583302660491405"
    lineno = next(i for i, line in enumerate(golden.splitlines(), 1) if tau in line)
    next_double = repr(math.nextafter(float(tau), 6.0))
    assert mismatches("tld.json", golden, golden.replace(tau, next_double)) == []
    assert mismatches("tld.json", golden, golden.replace(tau, "5.85833026605")) == [
        f"tld.json:{lineno}: expected {tau}, got 5.85833026605"
    ]
    assert mismatches("tld.json", golden, golden.replace('"tau_ld_units"', '"tau_ld"')) == [
        f"tld.json:{lineno}: expected '  \"tau_ld_units\": {tau},', got '  \"tau_ld\": {tau},'"
    ]
