"""Golden outputs: each case of tests/golden/cases.py rerun and compared with its directory there.

A rerun must give the same exit code, the same text and keys, and numbers
within a few ulp; `verify` is compared by its check names and pass flags,
since its details carry numpy and BLAS round-off.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from golden.cases import CASES, GOLDEN, NUMPY_FREE, run_case

# a decimal number standing alone, not the digits of a name or of a dotted version
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf(?:inity)?)(?![\w.])",
    re.IGNORECASE,
)
ULPS = 4


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
        w_nums, g_nums = NUMBER.findall(w), NUMBER.findall(g)
        if NUMBER.split(w) != NUMBER.split(g):  # the same text, so as many numbers
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


def test_numpy_free_cases_run_without_pytest_or_numpy(tmp_path):
    # as tests/cross_version.sh runs them, where Python 3.12 and 3.13 have neither
    code = ("import runpy, sys; sys.modules['pytest'] = sys.modules['numpy'] = None; "
            "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code, str(GOLDEN / "cases.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(GOLDEN.parents[1] / "src")))
    assert proc.returncode == 0, proc.stderr
    assert [(tmp_path / name / "exit_code").read_text() for name in NUMPY_FREE] == [
        (GOLDEN / name / "exit_code").read_text() for name in NUMPY_FREE
    ]


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
