"""The command line cases of tests/golden/, written once, and the runner of each.

A case is one `decoq.cli.main` run in a fresh directory that holds CONFIGS;
its outputs are its exit code, stdout and stderr, with the directory written
as {dir}, and every file it wrote.  tests/test_golden.py compares them with
tests/golden/<case>/, which regenerate.py rewrites.  `python cases.py OUTDIR`
writes every case that needs no numpy to OUTDIR/<case>/, importing neither
numpy nor pytest: tests/cross_version.sh runs it under Python 3.10 to 3.13.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

from decoq.cli import main

GOLDEN = Path(__file__).parent

# the baths of the config files every run finds in its directory, as
# RunConfig settings; a setting a bath does not name keeps its default
BATHS = {
    # D peaks near omega_c t = tan(pi/3) and falls to below the threshold by t_max
    "s3": {"s": 3.0, "eta": 1e-9, "threshold": 8.5e-5, "t_max": 1000.0},
    # the same bath, with a threshold above the bound on D past t_rise
    "s3-bound": {"s": 3.0, "eta": 1e-9, "threshold": 9.1e-5, "t_max": 1000.0},
    # D crosses past t_rise, falls back below the threshold and crosses again,
    # and the bound past t_rise is above the threshold
    "hump": {"s": 2.627190751706458, "temp_mk": 69.74256994832315, "omega_c": 44.12905023409275,
             "eta": 1.0598897093789957e-09, "t_max": 0.27958368503951514,
             "threshold": 9.794163274970207e-07},
    # a crossing at 2.4e-152 time units
    "s80": {"s": 80.0, "omega_c": 200.0},
    # B2 overflows a double
    "overflow": {"s": 80.0, "omega_c": 1e4},
}
# each bath as its <name>.cfg file
CONFIGS = {f"{name}.cfg": "".join(f"{key} = {value!r}\n" for key, value in settings.items())
           for name, settings in BATHS.items()}

# case -> command line, with {dir} the run's directory
CASES = {
    "version": "--version",
    "help": "-h",
    "bad-flag": "tld --thr 1e-4",
    "tld": "tld --out {dir}/tld.json",
    "tld-s3": "tld --config {dir}/s3.cfg --out {dir}/tld.json",
    "tld-s3-bound": "tld --config {dir}/s3-bound.cfg --out {dir}/tld.json",
    "tld-hump": "tld --config {dir}/hump.cfg --out {dir}/tld.json",
    "tld-no-crossing": "tld --t-max 1 --out {dir}/tld.json",
    # the eta budget near a threshold of 1/2 is one bounded bisection, and D
    # stays below the threshold up to t_max
    "tld-near-half": "tld --threshold 0.49999999 --out {dir}/tld.json",
    "tld-s80": "tld --config {dir}/s80.cfg --out {dir}/tld.json",
    "tld-t-max-1e300": "tld --t-max 1e300 --out {dir}/tld.json",
    "tld-overflow": "tld --config {dir}/overflow.cfg --out {dir}/tld.json",
    "curve": "curve --out {dir}/curve.csv",
    "curve-log-y": "curve --log-y --out {dir}/curve.csv",
    "curve-eta-0": "curve --eta 0 --out {dir}/curve.csv",
    # a time window one ulp wide, and so the plot's axis
    "curve-subnormal": "curve --samples 3 --t-max 5e-324 --out {dir}/curve.csv",
    # s3.cfg sets threshold, which curve does not read
    "curve-unread-key": "curve --config {dir}/s3.cfg --out {dir}/curve.csv",
    "sweep-T-check": "sweep --axis T --values 10,30,100,300 --out {dir}/sweep.csv",
    "sweep-eta": "sweep --axis eta --values 1e-7,1e-6,1e-5 --log-y --out {dir}/sweep.csv",
    "sweep-E_J-hump": ("sweep --axis E_J --values 20,51.8 --config {dir}/hump.cfg"
                       " --out {dir}/sweep.csv"),
    "sweep-check-error": "sweep --axis eta --values 1e-6,-1 --out {dir}/sweep.csv",
    "verify": "verify --out {dir}/verify.json",
    "verify-corrupt-b2": "verify --corrupt b2 --out {dir}/verify.json",
}
# verify imports numpy; every other command runs on the standard library alone
NUMPY_FREE = [name for name, line in CASES.items() if not line.startswith("verify")]


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in workdir; file name -> text of everything it leaves."""
    for config, text in CONFIGS.items():
        (workdir / config).write_text(text)
    argv = [arg.format(dir=workdir) for arg in CASES[name].split()]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage and help at the terminal's width: pin it to 80 columns
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    outputs = {path.name: path.read_text() for path in sorted(workdir.iterdir())
               if path.name not in CONFIGS}
    outputs["exit_code"] = f"{code}\n"
    outputs["stdout.txt"] = out.getvalue().replace(str(workdir), "{dir}")
    outputs["stderr.txt"] = err.getvalue().replace(str(workdir), "{dir}")
    return outputs


def write_cases(names, root: Path) -> None:
    """Run each named case in a fresh directory and write its outputs to root/<case>/."""
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, Path(tmp))
        target = root / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file, text in outputs.items():
            (target / file).write_text(text)


if __name__ == "__main__":
    write_cases(NUMPY_FREE, Path(sys.argv[1]))
